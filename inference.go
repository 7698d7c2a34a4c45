package tango

import (
	"fmt"
	"os"

	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/tensor"
)

// Classification is the result of running a CNN benchmark on one image.
type Classification struct {
	// Class is the arg-max class index.
	Class int
	// Probabilities is the softmax output over all classes.
	Probabilities []float32
	// LayerActivations maps layer names to their output element counts,
	// useful for inspecting the network's data flow.
	LayerActivations map[string]int
}

// nativeSettings extracts the worker count and numerics tier for the native
// compute engine from inference options.  Native inference reuses the
// WithParallelism knob — one worker per CPU (GOMAXPROCS) when it is absent,
// as WithParallelism(0) — and honors WithFastMath / WithInt8 /
// WithReferenceNumerics; the remaining options configure the simulator and
// have no effect on native runs.  When no numerics option is passed, the
// TANGO_NUMERICS environment variable ("reference", "fast", "int8") selects
// the default tier.
func nativeSettings(opts []SimOption) (int, nn.Numerics, error) {
	var settings simSettings
	for _, opt := range opts {
		if err := opt(&settings); err != nil {
			return 0, 0, err
		}
	}
	workers := workerCount(settings.parallelism)
	mode := settings.numerics
	if !settings.numericsSet {
		var err error
		if mode, err = nn.ParseNumerics(os.Getenv("TANGO_NUMERICS")); err != nil {
			return 0, 0, fmt.Errorf("tango: TANGO_NUMERICS: %w", err)
		}
	}
	return workers, mode, nil
}

// Classify runs a CNN benchmark natively on a CHW image supplied as a flat
// float32 slice (length = product of the input shape).
//
// The run executes on the native compute engine (im2col panels streamed
// through the blocked GEMM, with pooled scratch arenas).  WithParallelism
// selects the engine's worker count; without it the engine runs one worker
// per CPU (GOMAXPROCS).  Results are bit-identical for any worker count.  WithFastMath and
// WithInt8 opt into the fast-numerics tiers, which trade the bit-exactness
// contract for throughput (top-1 class is preserved; see those options).
// Other simulation options are accepted but have no effect on native runs.
func (b *Benchmark) Classify(image []float32, opts ...SimOption) (*Classification, error) {
	if err := b.ensureKind(networks.KindCNN, "Classify"); err != nil {
		return nil, err
	}
	shape := b.inner.Network.InputShape
	in, err := tensor.FromSlice(image, shape...)
	if err != nil {
		return nil, fmt.Errorf("tango: %s expects a %v input: %w", b.Name(), shape, err)
	}
	return b.classifyTensor(in, opts)
}

// ClassifySample runs a CNN benchmark on the deterministic synthetic sample
// input standing in for the paper's reference image (Table I).
func (b *Benchmark) ClassifySample(seed uint64, opts ...SimOption) (*Classification, error) {
	if err := b.ensureKind(networks.KindCNN, "ClassifySample"); err != nil {
		return nil, err
	}
	in, err := b.inner.SampleInput(seed)
	if err != nil {
		return nil, err
	}
	return b.classifyTensor(in, opts)
}

// classifyTensor runs the engine on a pooled scratch and copies the result
// out before the scratch (whose arena the result aliases) is released.
func (b *Benchmark) classifyTensor(in *tensor.Tensor, opts []SimOption) (*Classification, error) {
	workers, mode, err := nativeSettings(opts)
	if err != nil {
		return nil, err
	}
	s := b.inner.AcquireScratchNumerics(workers, mode)
	defer b.inner.ReleaseScratch(s)
	res, err := b.inner.RunInferenceScratch(in, s)
	if err != nil {
		return nil, err
	}
	return b.classification(res)
}

func (b *Benchmark) classification(res *networks.Result) (*Classification, error) {
	probs := make([]float32, res.Output.Len())
	copy(probs, res.Output.Data())
	acts := make(map[string]int, len(res.LayerOutputs))
	for i, out := range res.LayerOutputs {
		if out != nil {
			acts[b.inner.Network.Layers[i].Name] = out.Len()
		}
	}
	return &Classification{
		Class:            res.PredictedClass,
		Probabilities:    probs,
		LayerActivations: acts,
	}, nil
}

// Forecast runs an RNN benchmark natively on a history of scalar observations
// (e.g. normalized daily prices) and returns the predicted next value.
// WithParallelism selects the compute engine's worker count, one per CPU by
// default, as in Classify.
func (b *Benchmark) Forecast(history []float64, opts ...SimOption) (float64, error) {
	if err := b.ensureKind(networks.KindRNN, "Forecast"); err != nil {
		return 0, err
	}
	if len(history) == 0 {
		return 0, fmt.Errorf("tango: %s needs a non-empty history", b.Name())
	}
	inSize := b.inner.Network.InputShape[0]
	seq := make([]*tensor.Tensor, len(history))
	for i, v := range history {
		x := tensor.New(inSize)
		x.Fill(float32(v))
		seq[i] = x
	}
	return b.forecastSequence(seq, opts)
}

// forecastSequence runs the engine on a pooled scratch and extracts the
// prediction before the scratch is released.
func (b *Benchmark) forecastSequence(seq []*tensor.Tensor, opts []SimOption) (float64, error) {
	workers, mode, err := nativeSettings(opts)
	if err != nil {
		return 0, err
	}
	s := b.inner.AcquireScratchNumerics(workers, mode)
	defer b.inner.ReleaseScratch(s)
	res, err := b.inner.RunSequenceScratch(seq, s)
	if err != nil {
		return 0, err
	}
	return float64(res.Output.Data()[0]), nil
}

// SampleImage returns the deterministic synthetic input image for a CNN
// benchmark as a flat float32 slice, together with its shape.
func (b *Benchmark) SampleImage(seed uint64) ([]float32, []int, error) {
	if err := b.ensureKind(networks.KindCNN, "SampleImage"); err != nil {
		return nil, nil, err
	}
	in, err := b.inner.SampleInput(seed)
	if err != nil {
		return nil, nil, err
	}
	return in.Data(), in.Shape(), nil
}

// SampleHistory returns the deterministic synthetic price history for an RNN
// benchmark.
func (b *Benchmark) SampleHistory(seed uint64) ([]float64, error) {
	if err := b.ensureKind(networks.KindRNN, "SampleHistory"); err != nil {
		return nil, err
	}
	seq, err := b.inner.SampleSequence(seed)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(seq))
	for i, x := range seq {
		out[i] = float64(x.Data()[0])
	}
	return out, nil
}
