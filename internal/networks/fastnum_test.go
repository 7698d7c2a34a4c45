package networks_test

import (
	"math"
	"testing"

	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/tensor"
)

// Golden accuracy tests of the fast-numerics tiers: every network must
// produce the same top-1 class (CNNs) and an output within a relative-error
// bound of the bit-exact reference path.

// relErr returns max_i |got_i - want_i| / max_i |want_i|.
func relErr(got, want []float32) float64 {
	var maxAbs, maxDiff float64
	for i := range want {
		if a := math.Abs(float64(want[i])); a > maxAbs {
			maxAbs = a
		}
		if d := math.Abs(float64(got[i]) - float64(want[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxAbs == 0 {
		return maxDiff
	}
	return maxDiff / maxAbs
}

// maxULPDist returns the largest ULP distance between corresponding
// elements, treating float32 bit patterns as lexicographically ordered
// integers (the standard monotone mapping).
func maxULPDist(got, want []float32) uint32 {
	toOrd := func(f float32) int64 {
		b := int64(int32(math.Float32bits(f)))
		if b < 0 {
			b = math.MinInt32 - b
		}
		return b
	}
	var worst uint32
	for i := range want {
		d := toOrd(got[i]) - toOrd(want[i])
		if d < 0 {
			d = -d
		}
		if d > math.MaxUint32 {
			d = math.MaxUint32
		}
		if uint32(d) > worst {
			worst = uint32(d)
		}
	}
	return worst
}

func numericsScratch(mode nn.Numerics) *nn.Scratch {
	s := nn.NewScratch()
	s.SetNumerics(mode)
	return s
}

// goldenPair holds one tier-comparison run: the copied reference output and
// the fast-tier result (whose Output aliases its scratch arena), and for a
// CNN the same two of the layer feeding its Softmax.
type goldenPair struct {
	refOut, refLogits []float32
	refClass          int
	gotOut, gotLogits []float32
	gotClass          int
}

// logits returns the output of the layer feeding a network's final Softmax,
// or nil for a network that ends otherwise.  A saturated classifier's
// softmax is exactly one-hot on every tier, so only its logits show the
// tier's error.
func logits(p *networks.Plan, res *networks.Result) *tensor.Tensor {
	layers := p.Network().Layers
	if last := layers[len(layers)-1]; last.Type == networks.LayerSoftmax {
		return res.LayerOutputs[last.Inputs[0]]
	}
	return nil
}

// dataOf returns a possibly-nil tensor's data.
func dataOf(t *tensor.Tensor) []float32 {
	if t == nil {
		return nil
	}
	return t.Data()
}

// runGoldenPair runs a network on the reference tier and under mode.
func runGoldenPair(t *testing.T, name string, mode nn.Numerics) goldenPair {
	t.Helper()
	p := buildPlan(t, name)
	run := func(s *nn.Scratch) *networks.Result {
		t.Helper()
		var res *networks.Result
		var err error
		if p.Network().Kind == networks.KindRNN {
			res, err = p.RunSequence(rnnSequence(p, 11), s)
		} else {
			res, err = p.Run(cnnInput(p, 11), s)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(nn.NewScratch())
	refOut := append([]float32(nil), ref.Output.Data()...)
	refLogits := append([]float32(nil), dataOf(logits(p, ref))...)
	got := run(numericsScratch(mode))
	return goldenPair{
		refOut: refOut, refLogits: refLogits, refClass: ref.PredictedClass,
		gotOut: got.Output.Data(), gotLogits: dataOf(logits(p, got)), gotClass: got.PredictedClass,
	}
}

// requireGolden fails unless the pair agrees on top-1 and both its output
// and its logits are within tol relative error of the reference.
func requireGolden(t *testing.T, g goldenPair, mode nn.Numerics, tol float64) {
	t.Helper()
	if g.refClass != g.gotClass {
		t.Fatalf("top-1 disagreement: reference %d, %v %d", g.refClass, mode, g.gotClass)
	}
	out, lg := relErr(g.gotOut, g.refOut), relErr(g.gotLogits, g.refLogits)
	if out > tol || lg > tol {
		t.Fatalf("%v relative error: output %.3g, logits %.3g; bound %.3g", mode, out, lg, tol)
	}
	t.Logf("relErr output=%.3g logits=%.3g maxULP=%d", out, lg, maxULPDist(g.gotOut, g.refOut))
}

func TestFastMathGoldenAllNetworks(t *testing.T) {
	for _, name := range networks.Names() {
		if testing.Short() && (name == "ResNet" || name == "VGGNet") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			requireGolden(t, runGoldenPair(t, name, nn.NumericsFast), nn.NumericsFast, 1e-3)
		})
	}
}

func TestInt8GoldenAllNetworks(t *testing.T) {
	for _, name := range networks.Names() {
		if testing.Short() && (name == "ResNet" || name == "VGGNet") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			requireGolden(t, runGoldenPair(t, name, nn.NumericsInt8), nn.NumericsInt8, 0.25)
		})
	}
}

// TestFastMathBatchTop1 checks that the batched fast path agrees with the
// bit-exact reference on every sample's top-1 class (batched and
// single-sample fast outputs may differ in low bits; the accuracy contract
// is tolerance plus class agreement).
func TestFastMathBatchTop1(t *testing.T) {
	for _, name := range []string{"CifarNet", "SqueezeNet"} {
		t.Run(name, func(t *testing.T) {
			p := buildPlan(t, name)
			const nImg = 3
			shape := append([]int{nImg}, p.Network().InputShape...)
			batch := tensor.New(shape...)
			batch.FillUniform(tensor.NewRNG(23), 0, 1)
			refBatch, err := p.RunBatch(batch, nn.NewScratch())
			if err != nil {
				t.Fatal(err)
			}
			refPreds := append([]int(nil), refBatch.PredictedClasses...)
			for _, mode := range []nn.Numerics{nn.NumericsFast, nn.NumericsInt8} {
				got, err := p.RunBatch(batch, numericsScratch(mode))
				if err != nil {
					t.Fatal(err)
				}
				for i, want := range refPreds {
					if got.PredictedClasses[i] != want {
						t.Fatalf("%v: sample %d top-1 %d, reference %d",
							mode, i, got.PredictedClasses[i], want)
					}
				}
			}
		})
	}
}

// TestFastMathSteadyStateAllocs proves every tier reaches a zero-alloc
// steady state at one and two workers: after the first run packs the
// weight panels, grows the scratch arena and starts the team's helper,
// repeat inference must stay within 2 allocations per run (the Result
// object itself) — a fork allocates nothing.  CI runs this guard.
func TestFastMathSteadyStateAllocs(t *testing.T) {
	for _, mode := range []nn.Numerics{nn.NumericsReference, nn.NumericsFast, nn.NumericsInt8} {
		t.Run(mode.String(), func(t *testing.T) {
			p := buildPlan(t, "CifarNet")
			in := cnnInput(p, 11)
			eachWorkerCount(t, mode, func(s *nn.Scratch) {
				if _, err := p.Run(in, s); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// eachWorkerCount checks, at one and two workers, that run allocates at
// most twice per call once a first call has warmed a scratch of the tier.
func eachWorkerCount(t *testing.T, mode nn.Numerics, run func(s *nn.Scratch)) {
	t.Helper()
	for _, workers := range []int{1, 2} {
		s := numericsScratch(mode)
		s.SetWorkers(workers)
		run(s)
		if allocs := testing.AllocsPerRun(10, func() { run(s) }); allocs > 2 {
			t.Fatalf("%v at %d workers: steady state allocates %.0f/run, want <= 2", mode, workers, allocs)
		}
	}
}

// runBatchGolden runs a plan's batched path with nImg samples (sequences
// for RNNs) under the given scratch.
func runBatchGolden(t *testing.T, p *networks.Plan, s *nn.Scratch, nImg int) *networks.BatchResult {
	t.Helper()
	n := p.Network()
	var res *networks.BatchResult
	var err error
	if n.Kind == networks.KindRNN {
		steps := n.SeqLen
		if steps <= 0 {
			steps = 2
		}
		seq := tensor.New(steps, nImg, n.InputShape[0])
		seq.FillUniform(tensor.NewRNG(uint64(31+nImg)), 0, 1)
		res, err = p.RunSequenceBatch(seq, s)
	} else {
		shape := append([]int{nImg}, n.InputShape...)
		batch := tensor.New(shape...)
		batch.FillUniform(tensor.NewRNG(uint64(31+nImg)), 0, 1)
		res, err = p.RunBatch(batch, s)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFusedBatchGoldenAllNetworks is the fused batched path's accuracy
// contract across the whole suite: for every network, batch size (including
// ragged sequence batches for the forecast RNNs) and worker count, the
// fast tier must stay within 1e-3 relative error of the batched reference
// and the int8 tier within 0.25, with every sample's top-1 class preserved
// on the CNNs.  Heavy networks skip under -short like the single-sample
// goldens; batch 8 runs only on the light CNNs to keep the suite quick.
func TestFusedBatchGoldenAllNetworks(t *testing.T) {
	modes := []struct {
		mode nn.Numerics
		tol  float64
	}{
		{nn.NumericsFast, 1e-3},
		{nn.NumericsInt8, 0.25},
	}
	for _, name := range networks.Names() {
		if testing.Short() && (name == "ResNet" || name == "VGGNet") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			p := buildPlan(t, name)
			isRNN := p.Network().Kind == networks.KindRNN
			batches := []int{1, 3}
			if isRNN {
				batches = append(batches, 5) // ragged forecast batch
			} else if name == "CifarNet" || name == "SqueezeNet" {
				batches = append(batches, 8)
			}
			for _, nImg := range batches {
				ref := runBatchGolden(t, p, nn.NewScratch(), nImg)
				refOut := append([]float32(nil), ref.Output.Data()...)
				refPreds := append([]int(nil), ref.PredictedClasses...)
				for _, m := range modes {
					for _, workers := range []int{1, 3} {
						s := numericsScratch(m.mode)
						s.SetWorkers(workers)
						got := runBatchGolden(t, p, s, nImg)
						if re := relErr(got.Output.Data(), refOut); re > m.tol {
							t.Fatalf("%v batch %d workers %d: relative error %.3g exceeds %.3g",
								m.mode, nImg, workers, re, m.tol)
						}
						if !isRNN {
							for i, want := range refPreds {
								if got.PredictedClasses[i] != want {
									t.Fatalf("%v batch %d workers %d: sample %d top-1 %d, reference %d",
										m.mode, nImg, workers, i, got.PredictedClasses[i], want)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestFusedBatchWorkerDeterminism: the fused batched path's panel grid is
// fixed per image, so the output bytes must not depend on the worker
// fan-out — fast tier because each element is produced by exactly one
// panel's FMA chain, int8 because integer accumulation is exact.
func TestFusedBatchWorkerDeterminism(t *testing.T) {
	for _, mode := range []nn.Numerics{nn.NumericsFast, nn.NumericsInt8} {
		t.Run(mode.String(), func(t *testing.T) {
			p := buildPlan(t, "CifarNet")
			shape := append([]int{3}, p.Network().InputShape...)
			batch := tensor.New(shape...)
			batch.FillUniform(tensor.NewRNG(41), 0, 1)
			base, err := p.RunBatch(batch, numericsScratch(mode))
			if err != nil {
				t.Fatal(err)
			}
			baseOut := append([]float32(nil), base.Output.Data()...)
			for _, workers := range []int{2, 5} {
				s := numericsScratch(mode)
				s.SetWorkers(workers)
				got, err := p.RunBatch(batch, s)
				if err != nil {
					t.Fatal(err)
				}
				for i := range baseOut {
					if math.Float32bits(got.Output.Data()[i]) != math.Float32bits(baseOut[i]) {
						t.Fatalf("workers=%d: element %d differs: %v vs %v",
							workers, i, got.Output.Data()[i], baseOut[i])
					}
				}
			}
		})
	}
}

// TestFastMathBatchSteadyStateAllocs: the fused batched path must also
// reach a near-zero-alloc steady state on every tier at one and two
// workers — no staged colT buffer, panels and quantization scratch reused
// from the arena, so repeat batched inference stays within 2 allocations
// per run (the BatchResult object).
func TestFastMathBatchSteadyStateAllocs(t *testing.T) {
	for _, mode := range []nn.Numerics{nn.NumericsReference, nn.NumericsFast, nn.NumericsInt8} {
		t.Run(mode.String(), func(t *testing.T) {
			p := buildPlan(t, "CifarNet")
			shape := append([]int{3}, p.Network().InputShape...)
			batch := tensor.New(shape...)
			batch.FillUniform(tensor.NewRNG(43), 0, 1)
			eachWorkerCount(t, mode, func(s *nn.Scratch) {
				if _, err := p.RunBatch(batch, s); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestFastMathBatchSequence checks the batched fast recurrent path against
// the reference within tolerance.
func TestFastMathBatchSequence(t *testing.T) {
	for _, name := range networks.RNNNames() {
		t.Run(name, func(t *testing.T) {
			p := buildPlan(t, name)
			n := p.Network()
			steps := n.SeqLen
			if steps <= 0 {
				steps = 2
			}
			const nSeq = 3
			seq := tensor.New(steps, nSeq, n.InputShape[0])
			seq.FillUniform(tensor.NewRNG(29), 0, 1)
			ref, err := p.RunSequenceBatch(seq, nn.NewScratch())
			if err != nil {
				t.Fatal(err)
			}
			refOut := append([]float32(nil), ref.Output.Data()...)
			fast, err := p.RunSequenceBatch(seq, numericsScratch(nn.NumericsFast))
			if err != nil {
				t.Fatal(err)
			}
			if re := relErr(fast.Output.Data(), refOut); re > 1e-3 {
				t.Fatalf("fast batch output relative error %.3g exceeds 1e-3", re)
			}
		})
	}
}
