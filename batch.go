package tango

import (
	"fmt"

	"tango/internal/networks"
	"tango/internal/tensor"
)

// This file implements batched throughput inference: ClassifyBatch and
// ForecastBatch push N samples through the native compute engine in one
// pass, folding the batch into the engine's GEMM dimensions so weight
// traffic and staging work are amortized across the batch.  Batched results
// are bit-identical to running each sample through Classify / Forecast on
// the default numerics tier, and a batch of one equals Classify / Forecast
// on every tier.  Under WithFastMath / WithInt8 a sample in a larger batch
// keeps the contract of top-1 class agreement (CNNs) plus a small
// relative-error bound instead: from two samples on, fully-connected layers
// and recurrent gates run the GEMM rather than the mat-vec.

// BatchClassification is the result of one sample of a batched CNN run.
// Unlike Classification, it omits the per-layer activation map: batched runs
// keep only the batched layer outputs, not per-sample views of them.
type BatchClassification struct {
	// Class is the arg-max class index.
	Class int
	// Probabilities is the softmax output over all classes.
	Probabilities []float32
}

// ClassifyBatch runs a CNN benchmark natively on a batch of CHW images,
// each a flat float32 slice (length = product of the input shape).  All
// images run through the compute engine together: convolutions see every
// output pixel of every image in one GEMM and fully-connected layers
// compute the whole batch per weight pass, which is what makes sustained
// throughput scale with batch size.
//
// On the default numerics tier, results are bit-identical to calling
// Classify on each image, for any batch size and any WithParallelism worker
// count; under WithFastMath / WithInt8 the batch preserves each sample's
// top-1 class within the fast tier's tolerance instead.  An empty batch or
// images of the wrong length return an error.
func (b *Benchmark) ClassifyBatch(images [][]float32, opts ...SimOption) ([]BatchClassification, error) {
	if err := b.ensureKind(networks.KindCNN, "ClassifyBatch"); err != nil {
		return nil, err
	}
	if len(images) == 0 {
		return nil, fmt.Errorf("tango: %s: %w: empty batch", b.Name(), tensor.ErrShape)
	}
	shape := b.inner.Network.InputShape
	want := 1
	for _, d := range shape {
		want *= d
	}
	batch := tensor.New(append([]int{len(images)}, shape...)...)
	data := batch.Data()
	for i, img := range images {
		if len(img) != want {
			return nil, fmt.Errorf("tango: %s: %w: image %d has %d elements, want %d (input shape %v)",
				b.Name(), tensor.ErrShape, i, len(img), want, shape)
		}
		copy(data[i*want:(i+1)*want], img)
	}

	workers, mode, err := nativeSettings(opts)
	if err != nil {
		return nil, err
	}
	s := b.inner.AcquireScratchNumerics(workers, mode)
	defer b.inner.ReleaseScratch(s)
	res, err := b.inner.RunBatchScratch(batch, s)
	if err != nil {
		return nil, err
	}
	return batchClassifications(res), nil
}

// batchClassifications copies a batched result out of its scratch-aliased
// storage into per-sample classifications; it must run before the scratch is
// released.
func batchClassifications(res *networks.BatchResult) []BatchClassification {
	classes := res.Output.Len() / res.N
	out := make([]BatchClassification, res.N)
	probs := make([]float32, res.Output.Len())
	copy(probs, res.Output.Data())
	for i := range out {
		out[i] = BatchClassification{
			Class:         res.PredictedClasses[i],
			Probabilities: probs[i*classes : (i+1)*classes],
		}
	}
	return out
}

// ForecastBatch runs an RNN benchmark natively on a batch of histories of
// scalar observations and returns one predicted next value per history.
// All histories must have the same length (the recurrent gates run as one
// batched GEMM per time step, so the batch advances in lockstep); ragged
// batches are rejected.  Each result equals Forecast bit for bit on the
// default tier, and on every tier in a batch of one (else within tolerance).
func (b *Benchmark) ForecastBatch(histories [][]float64, opts ...SimOption) ([]float64, error) {
	if err := b.ensureKind(networks.KindRNN, "ForecastBatch"); err != nil {
		return nil, err
	}
	if len(histories) == 0 {
		return nil, fmt.Errorf("tango: %s: %w: empty batch", b.Name(), tensor.ErrShape)
	}
	steps := len(histories[0])
	if steps == 0 {
		return nil, fmt.Errorf("tango: %s: %w: history 0 is empty", b.Name(), tensor.ErrShape)
	}
	for i, h := range histories {
		if len(h) != steps {
			return nil, fmt.Errorf("tango: %s: %w: ragged batch: history %d has %d steps, history 0 has %d",
				b.Name(), tensor.ErrShape, i, len(h), steps)
		}
	}

	n := len(histories)
	inSize := b.inner.Network.InputShape[0]
	seq := tensor.New(steps, n, inSize)
	data := seq.Data()
	for i, h := range histories {
		for t, v := range h {
			row := data[(t*n+i)*inSize : (t*n+i+1)*inSize]
			fv := float32(v)
			for j := range row {
				row[j] = fv
			}
		}
	}

	workers, mode, err := nativeSettings(opts)
	if err != nil {
		return nil, err
	}
	s := b.inner.AcquireScratchNumerics(workers, mode)
	defer b.inner.ReleaseScratch(s)
	res, err := b.inner.RunSequenceBatchScratch(seq, s)
	if err != nil {
		return nil, err
	}
	outF := res.Output.Len() / n
	preds := make([]float64, n)
	for i := range preds {
		preds[i] = float64(res.Output.Data()[i*outF])
	}
	return preds, nil
}
