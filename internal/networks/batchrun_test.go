package networks_test

import (
	"errors"
	"fmt"
	"testing"

	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/tensor"
)

// cnnBatch stacks n deterministic sample images into a rank-4 batch whose
// sample i equals cnnInput(p, seed+i).
func cnnBatch(p *networks.Plan, seed uint64, n int) *tensor.Tensor {
	batch := tensor.New(append([]int{n}, p.Network().InputShape...)...)
	sample := batch.Len() / n
	for i := 0; i < n; i++ {
		copy(batch.Data()[i*sample:], cnnInput(p, seed+uint64(i)).Data())
	}
	return batch
}

// rnnBatch stacks n deterministic sample sequences into a rank-3
// (steps, n, features) batch whose sequence i equals rnnSequence(p, seed+i).
func rnnBatch(p *networks.Plan, seed uint64, n int) *tensor.Tensor {
	inSize := p.Network().InputShape[0]
	batch := tensor.New(seqLen(p.Network()), n, inSize)
	for i := 0; i < n; i++ {
		for t, x := range rnnSequence(p, seed+uint64(i)) {
			copy(batch.Data()[(t*n+i)*inSize:], x.Data())
		}
	}
	return batch
}

// runBatch runs samples seed..seed+n-1 through p as one batch.
func runBatch(t *testing.T, p *networks.Plan, s *nn.Scratch, seed uint64, n int) *networks.BatchResult {
	t.Helper()
	var res *networks.BatchResult
	var err error
	if p.Network().Kind == networks.KindCNN {
		res, err = p.RunBatch(cnnBatch(p, seed, n), s)
	} else {
		res, err = p.RunSequenceBatch(rnnBatch(p, seed, n), s)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("batch result N = %d, want %d", res.N, n)
	}
	return res
}

// requireSample fails unless sample i of a batched run of n is
// bit-identical to a single run and, for a CNN, predicts its class.
func requireSample(t *testing.T, label string, batch *runOut, n, i int, one *runOut) {
	t.Helper()
	per := len(one.out)
	if len(batch.out) != n*per {
		t.Fatalf("%s: batched output has %d elements, %d samples of %d need %d", label, len(batch.out), n, per, n*per)
	}
	requireBits(t, fmt.Sprintf("%s: sample %d", label, i), batch.out[i*per:(i+1)*per], one.out)
	if batch.classes != nil && batch.classes[i] != one.classes[0] {
		t.Fatalf("%s: sample %d predicted %d, want %d", label, i, batch.classes[i], one.classes[0])
	}
}

// TestRunBatchGoldenEquivalence is the batched-inference golden test: for
// every network of the suite (and the MobileNet extension), a batched run —
// serial and parallel, with and without a scratch — must reproduce the
// single-sample engine bit for bit on every sample, including the predicted
// classes.
func TestRunBatchGoldenEquivalence(t *testing.T) {
	forNets(t, suite(), func(t *testing.T, f *fixture) {
		n := 3
		if f.net.Kind == networks.KindCNN && len(f.net.Layers) > 12 {
			n = 2 // keep the deep CNNs affordable
		}
		for _, c := range []struct {
			label   string
			workers int
		}{{"serial", 1}, {"parallel", 4}, {"no-scratch", 0}} {
			got := f.out(t, batchOf(nn.NumericsReference, c.workers, int8Seed, n))
			for i := 0; i < n; i++ {
				requireSample(t, c.label, got, n, i, f.out(t, single(nn.NumericsReference, 1, int8Seed+uint64(i))))
			}
		}
	})
}

// TestRunBatchOfOneMatchesSingle pins the batch-of-1 case on every tier: a
// RunBatch of one image walks the same ops as Run, each of which picks its
// kernel from the sample count, so its output equals Run's bit for bit and
// its predicted class is Run's — for every CNN, numerics tier and worker
// count; and a RunSequenceBatch of one sequence equals RunSequence on every
// RNN alike, over several sequences (the regression head leaves one value
// per sequence to compare).
func TestRunBatchOfOneMatchesSingle(t *testing.T) {
	forNets(t, suite(), func(t *testing.T, f *fixture) {
		seeds := []uint64{int8Seed}
		if f.net.Kind == networks.KindRNN {
			seeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}
		}
		for _, mode := range []nn.Numerics{nn.NumericsReference, nn.NumericsFast, nn.NumericsInt8} {
			for _, workers := range []int{1, 3} {
				for _, seed := range seeds {
					one := f.out(t, single(mode, workers, seed))
					label := fmt.Sprintf("%v/w%d/seed%d", mode, workers, seed)
					requireSample(t, label, f.out(t, batchOf(mode, workers, seed, 1)), 1, 0, one)
				}
			}
		}
	})
}

// TestRunBatchDirectStagesNothing: under SetDirect a batched run reaches the
// direct kernels in convolution, fully-connected and recurrent layers, which
// stage nothing, so the scratch holds only its output arena — where the
// engine keeps a patch matrix and the batch's GEMM buffers.
func TestRunBatchDirectStagesNothing(t *testing.T) {
	for _, name := range []string{"CifarNet", "GRU", "LSTM"} {
		p := buildPlan(t, name)
		direct := nn.NewScratch()
		direct.SetDirect(true)
		runBatch(t, p, direct, 5, 3)
		if got, arena := direct.Bytes(), direct.ArenaBytes(); got != arena {
			t.Fatalf("%s direct batch: scratch holds %d bytes, %d beyond its %d-byte arena", name, got, got-arena, arena)
		}
		engine := nn.NewScratch()
		runBatch(t, p, engine, 5, 3)
		if engine.Bytes() <= engine.ArenaBytes() {
			t.Fatalf("%s engine batch: scratch holds %d bytes, no more than its arena", name, engine.Bytes())
		}
	}
}

// TestRunBatchScratchReuse verifies batched runs reuse scratch storage
// deterministically.
func TestRunBatchScratchReuse(t *testing.T) {
	p, s := buildPlan(t, "CifarNet"), nn.NewScratch()
	requireReruns(t, func() []float32 { return runBatch(t, p, s, 5, 4).Output.Data() })
}

// TestRunBatchAllocations guards the steady-state allocation budget of
// batched inference: after warm-up, a batched run with a reused scratch must
// stay within the same <= 2 allocations as the single-sample path.
func TestRunBatchAllocations(t *testing.T) {
	p := buildPlan(t, "CifarNet")
	in := cnnBatch(p, 3, 4)
	eachWorkerCount(t, nn.NumericsReference, func(s *nn.Scratch) {
		if _, err := p.RunBatch(in, s); err != nil {
			t.Fatal(err)
		}
	})

	rp := buildPlan(t, "LSTM")
	seq := rnnBatch(rp, 3, 4)
	eachWorkerCount(t, nn.NumericsReference, func(s *nn.Scratch) {
		if _, err := rp.RunSequenceBatch(seq, s); err != nil {
			t.Fatal(err)
		}
	})
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
