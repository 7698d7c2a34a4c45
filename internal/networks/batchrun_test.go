package networks_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/tensor"
)

// cnnBatch stacks n deterministic sample images into a rank-4 batch whose
// sample i equals cnnInput(p, seed+i).
func cnnBatch(p *networks.Plan, seed uint64, n int) *tensor.Tensor {
	shape := p.Network().InputShape
	batch := tensor.New(append([]int{n}, shape...)...)
	sample := batch.Len() / n
	for i := 0; i < n; i++ {
		in := cnnInput(p, seed+uint64(i))
		copy(batch.Data()[i*sample:(i+1)*sample], in.Data())
	}
	return batch
}

// rnnBatch stacks n deterministic sample sequences into a rank-3
// (steps, n, features) batch whose sequence i equals rnnSequence(p, seed+i).
func rnnBatch(p *networks.Plan, seed uint64, n int) *tensor.Tensor {
	inSize := p.Network().InputShape[0]
	steps := p.Network().SeqLen
	if steps <= 0 {
		steps = 2
	}
	batch := tensor.New(steps, n, inSize)
	for i := 0; i < n; i++ {
		seq := rnnSequence(p, seed+uint64(i))
		for t, x := range seq {
			copy(batch.Data()[(t*n+i)*inSize:(t*n+i+1)*inSize], x.Data())
		}
	}
	return batch
}

// requireSampleBits fails unless row i of the batched output is bit-identical
// to the single-sample output tensor.
func requireSampleBits(t *testing.T, label string, batch *tensor.Tensor, i, n int, want *tensor.Tensor) {
	t.Helper()
	sample := batch.Len() / n
	if sample != want.Len() {
		t.Fatalf("%s: batched sample has %d elements, single has %d", label, sample, want.Len())
	}
	got := batch.Data()[i*sample : (i+1)*sample]
	for j, v := range want.Data() {
		if math.Float32bits(got[j]) != math.Float32bits(v) {
			t.Fatalf("%s: sample %d element %d = %x, want %x (bit-exact)",
				label, i, j, math.Float32bits(got[j]), math.Float32bits(v))
		}
	}
}

// TestRunBatchGoldenEquivalence is the batched-inference golden test: for
// every network of the suite (and the MobileNet extension), a batched run —
// serial and parallel — must reproduce the single-sample engine bit for bit
// on every sample, including the predicted classes.
func TestRunBatchGoldenEquivalence(t *testing.T) {
	names := append(append([]string{}, networks.Names()...), networks.ExtensionNames()...)
	for _, name := range names {
		if testing.Short() && (name == "ResNet" || name == "VGGNet") {
			t.Logf("skipping %s in -short mode (largest engine runs)", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			p := buildPlan(t, name)
			isCNN := p.Network().Kind == networks.KindCNN
			batchN := 3
			if isCNN && len(p.Network().Layers) > 12 {
				batchN = 2 // keep the deep CNNs affordable
			}

			serial := nn.NewScratch()
			parallel := nn.NewScratch()
			parallel.SetWorkers(4)

			// Single-sample references via the established engine path.
			singles := make([]*networks.Result, batchN)
			for i := 0; i < batchN; i++ {
				var err error
				if isCNN {
					singles[i], err = p.Run(cnnInput(p, 42+uint64(i)), nil)
				} else {
					singles[i], err = p.RunSequence(rnnSequence(p, 42+uint64(i)), nil)
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			for _, c := range []struct {
				label string
				s     *nn.Scratch
			}{{"serial", serial}, {"parallel", parallel}, {"no-scratch", nil}} {
				var res *networks.BatchResult
				var err error
				if isCNN {
					res, err = p.RunBatch(cnnBatch(p, 42, batchN), c.s)
				} else {
					res, err = p.RunSequenceBatch(rnnBatch(p, 42, batchN), c.s)
				}
				if err != nil {
					t.Fatalf("%s: %v", c.label, err)
				}
				if res.N != batchN {
					t.Fatalf("%s: batch result N = %d, want %d", c.label, res.N, batchN)
				}
				for i := 0; i < batchN; i++ {
					requireSampleBits(t, c.label, res.Output, i, batchN, singles[i].Output)
					if isCNN && res.PredictedClasses[i] != singles[i].PredictedClass {
						t.Fatalf("%s: sample %d predicted %d, want %d",
							c.label, i, res.PredictedClasses[i], singles[i].PredictedClass)
					}
				}
			}
		})
	}
}

// TestRunBatchOfOneMatchesSingle pins the batch-of-1 case on every tier: a
// RunBatch of one image walks the same ops as Run, each of which picks its
// kernel from the sample count, so its output equals Run's bit for bit and
// its predicted class is Run's — for every CNN, numerics tier and worker
// count; and a RunSequenceBatch of one sequence equals RunSequence on every
// RNN alike, over several sequences (the regression head leaves one value
// per sequence to compare).
func TestRunBatchOfOneMatchesSingle(t *testing.T) {
	tiers := []nn.Numerics{nn.NumericsReference, nn.NumericsFast, nn.NumericsInt8}
	for _, name := range networks.RNNNames() {
		p := buildPlan(t, name)
		for _, mode := range tiers {
			for _, workers := range []int{1, 3} {
				s := numericsScratch(mode)
				s.SetWorkers(workers)
				for seed := uint64(1); seed <= 8; seed++ {
					label := fmt.Sprintf("%s/%v/w%d/seed%d", name, mode, workers, seed)
					single, err := p.RunSequence(rnnSequence(p, seed), s)
					if err != nil {
						t.Fatal(err)
					}
					want := single.Output.Clone()
					res, err := p.RunSequenceBatch(rnnBatch(p, seed, 1), s)
					if err != nil {
						t.Fatal(err)
					}
					requireSampleBits(t, label, res.Output, 0, 1, want)
				}
			}
		}
	}
	for _, c := range int8DigestCases {
		if c.heavy && testing.Short() {
			continue
		}
		p := buildPlan(t, c.name)
		for _, mode := range tiers {
			for _, workers := range []int{1, 3} {
				label := fmt.Sprintf("%s/%v/w%d", c.name, mode, workers)
				s := numericsScratch(mode)
				s.SetWorkers(workers)
				single, err := p.Run(cnnInput(p, 9), s)
				if err != nil {
					t.Fatal(err)
				}
				want, class := single.Output.Clone(), single.PredictedClass
				res, err := p.RunBatch(cnnBatch(p, 9, 1), s)
				if err != nil {
					t.Fatal(err)
				}
				requireSampleBits(t, label, res.Output, 0, 1, want)
				if res.PredictedClasses[0] != class {
					t.Fatalf("%s: predicted %d, want %d", label, res.PredictedClasses[0], class)
				}
			}
		}
	}
}

// TestRunBatchDirectStagesNothing: under SetDirect a batched run reaches the
// direct kernels in convolution, fully-connected and recurrent layers, which
// stage nothing, so the scratch holds only its output arena — where the
// engine keeps a patch matrix and the batch's GEMM buffers.
func TestRunBatchDirectStagesNothing(t *testing.T) {
	for _, name := range []string{"CifarNet", "GRU", "LSTM"} {
		p := buildPlan(t, name)
		run := func(s *nn.Scratch) {
			t.Helper()
			var err error
			if p.Network().Kind == networks.KindRNN {
				_, err = p.RunSequenceBatch(rnnBatch(p, 5, 3), s)
			} else {
				_, err = p.RunBatch(cnnBatch(p, 5, 3), s)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		direct := nn.NewScratch()
		direct.SetDirect(true)
		run(direct)
		if got, arena := direct.Bytes(), direct.ArenaBytes(); got != arena {
			t.Fatalf("%s direct batch: scratch holds %d bytes, %d beyond its %d-byte arena", name, got, got-arena, arena)
		}
		engine := nn.NewScratch()
		run(engine)
		if engine.Bytes() <= engine.ArenaBytes() {
			t.Fatalf("%s engine batch: scratch holds %d bytes, no more than its arena", name, engine.Bytes())
		}
	}
}

// TestRunBatchScratchReuse verifies batched runs reuse scratch storage
// deterministically.
func TestRunBatchScratchReuse(t *testing.T) {
	p := buildPlan(t, "CifarNet")
	s := nn.NewScratch()
	in := cnnBatch(p, 5, 4)
	first, err := p.RunBatch(in, s)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Output.Clone()
	for i := 0; i < 3; i++ {
		res, err := p.RunBatch(in, s)
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, "rerun", res.Output, want)
	}
}

// TestRunBatchAllocations guards the steady-state allocation budget of
// batched inference: after warm-up, a batched run with a reused scratch must
// stay within the same <= 2 allocations as the single-sample path.
func TestRunBatchAllocations(t *testing.T) {
	p := buildPlan(t, "CifarNet")
	s := nn.NewScratch()
	in := cnnBatch(p, 3, 4)
	if _, err := p.RunBatch(in, s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := p.RunBatch(in, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state batched CNN run allocated %v times, want <= 2", allocs)
	}

	rp := buildPlan(t, "LSTM")
	rs := nn.NewScratch()
	seq := rnnBatch(rp, 3, 4)
	if _, err := rp.RunSequenceBatch(seq, rs); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(10, func() {
		if _, err := rp.RunSequenceBatch(seq, rs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state batched RNN run allocated %v times, want <= 2", allocs)
	}
}

// TestRunBatchErrors covers the batched validation paths.
func TestRunBatchErrors(t *testing.T) {
	cnn := buildPlan(t, "CifarNet")
	rnn := buildPlan(t, "LSTM")

	if _, err := cnn.RunBatch(nil, nil); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("nil batch: got %v, want ErrShape", err)
	}
	if _, err := cnn.RunBatch(tensor.New(3, 32, 32), nil); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("rank-3 batch: got %v, want ErrShape", err)
	}
	if _, err := cnn.RunBatch(tensor.New(2, 3, 16, 16), nil); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("wrong sample shape: got %v, want ErrShape", err)
	}
	if _, err := cnn.RunSequenceBatch(tensor.New(2, 2, 1), nil); err == nil {
		t.Fatal("RunSequenceBatch on a CNN must fail")
	}
	if _, err := rnn.RunBatch(tensor.New(1, 3, 32, 32), nil); err == nil {
		t.Fatal("RunBatch on an RNN must fail")
	}
	if _, err := rnn.RunSequenceBatch(tensor.New(2, 2, 5), nil); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("wrong feature width: got %v, want ErrShape", err)
	}
	if _, err := rnn.RunSequenceBatch(nil, nil); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("nil sequence batch: got %v, want ErrShape", err)
	}
}
