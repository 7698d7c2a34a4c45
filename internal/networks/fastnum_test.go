package networks_test

import (
	"fmt"
	"math"
	"testing"

	"tango/internal/networks"
	"tango/internal/nn"
)

// Golden accuracy tests of the fast-numerics tiers: every network must
// produce the same top-1 class (CNNs) and an output within a relative-error
// bound of the bit-exact reference path, single-sample and batched.

// tolerance is each fast tier's relative-error bound against the reference.
var tolerance = map[nn.Numerics]float64{nn.NumericsFast: 1e-3, nn.NumericsInt8: 0.25}

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

func numericsScratch(mode nn.Numerics) *nn.Scratch {
	s := nn.NewScratch()
	s.SetNumerics(mode)
	return s
}

// logits returns the output of the layer feeding a network's final Softmax,
// or nil for a network that ends otherwise.  A saturated classifier's
// softmax is exactly one-hot on every tier, so only its logits show the
// tier's error.
func logits(p *networks.Plan, res *networks.Result) []float32 {
	layers := p.Network().Layers
	if last := layers[len(layers)-1]; last.Type == networks.LayerSoftmax {
		return res.LayerOutputs[last.Inputs[0]].Data()
	}
	return nil
}

// requireGolden returns the row holding mode's single-sample run to the
// reference's top-1 and, output and logits both, within mode's tolerance.
func requireGolden(mode nn.Numerics) func(t *testing.T, f *fixture) {
	return func(t *testing.T, f *fixture) {
		ref, got := f.out(t, single(nn.NumericsReference, 1, int8Seed)), f.out(t, single(mode, 1, int8Seed))
		if ref.classes[0] != got.classes[0] {
			t.Fatalf("top-1 disagreement: reference %d, %v %d", ref.classes[0], mode, got.classes[0])
		}
		out, lg := relErr(got.out, ref.out), relErr(got.logits, ref.logits)
		if tol := tolerance[mode]; out > tol || lg > tol {
			t.Fatalf("%v relative error: output %.3g, logits %.3g; bound %.3g", mode, out, lg, tol)
		}
		t.Logf("relErr output=%.3g logits=%.3g", out, lg)
	}
}

func TestFastMathGoldenAllNetworks(t *testing.T) {
	forNets(t, networks.Names(), requireGolden(nn.NumericsFast))
}

func TestInt8GoldenAllNetworks(t *testing.T) {
	forNets(t, networks.Names(), requireGolden(nn.NumericsInt8))
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

// TestFusedBatchGoldenAllNetworks is the fused batched path's accuracy
// contract across the whole suite: for every network, batch size (including
// ragged sequence batches for the forecast RNNs) and worker count, the
// fast tier must stay within 1e-3 relative error of the batched reference
// and the int8 tier within 0.25, with every sample's top-1 class preserved
// on the CNNs.  Batch 8 runs only on the light CNNs to keep the suite quick.
func TestFusedBatchGoldenAllNetworks(t *testing.T) {
	forNets(t, networks.Names(), func(t *testing.T, f *fixture) {
		batches := []int{1, 3}
		if f.net.Kind == networks.KindRNN {
			batches = append(batches, 5) // ragged forecast batch
		} else if f.net.Name == "CifarNet" || f.net.Name == "SqueezeNet" {
			batches = append(batches, 8)
		}
		for _, n := range batches {
			ref := f.out(t, batchOf(nn.NumericsReference, 1, int8Seed, n))
			for _, mode := range []nn.Numerics{nn.NumericsFast, nn.NumericsInt8} {
				for _, workers := range []int{1, 3} {
					got := f.out(t, batchOf(mode, workers, int8Seed, n))
					if re := relErr(got.out, ref.out); re > tolerance[mode] {
						t.Fatalf("%v batch %d workers %d: relative error %.3g exceeds %.3g",
							mode, n, workers, re, tolerance[mode])
					}
					for i, want := range ref.classes {
						if got.classes[i] != want {
							t.Fatalf("%v batch %d workers %d: sample %d top-1 %d, reference %d",
								mode, n, workers, i, got.classes[i], want)
						}
					}
				}
			}
		}
	})
}

// TestFusedBatchWorkerDeterminism: the fused batched path's panel grid is
// fixed per image, so the output bytes must not depend on the worker
// fan-out — fast tier because each element is produced by exactly one
// panel's FMA chain, int8 because integer accumulation is exact.
func TestFusedBatchWorkerDeterminism(t *testing.T) {
	for _, mode := range []nn.Numerics{nn.NumericsFast, nn.NumericsInt8} {
		t.Run(mode.String(), func(t *testing.T) {
			f := fixtureFor(t, "CifarNet")
			base := f.out(t, batchOf(mode, 1, int8Seed, 3))
			for _, workers := range []int{2, 5} {
				requireBits(t, fmt.Sprintf("workers=%d", workers), f.out(t, batchOf(mode, workers, int8Seed, 3)).out, base.out)
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
			batch := cnnBatch(p, 43, 3)
			eachWorkerCount(t, mode, func(s *nn.Scratch) {
				if _, err := p.RunBatch(batch, s); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
