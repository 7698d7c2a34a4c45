package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	"tango/internal/networks"
	"tango/internal/par"
	"tango/internal/tensor"
)

// forceTier runs fn once per tier in [TierGeneric, detected], restoring the
// detected tier afterwards.  This is the CPUID-ladder walk the override hook
// exists for: on an AVX-512 machine it exercises AVX-512, FMA and generic
// kernels from one binary.
func forceTier(t *testing.T, fn func(t *testing.T, tier tensor.SIMDTier)) {
	t.Helper()
	defer tensor.SetFastTier(tensor.DetectedTier())
	for tier := tensor.TierGeneric; tier <= tensor.DetectedTier(); tier++ {
		applied := tensor.SetFastTier(tier)
		if applied != tier {
			t.Fatalf("SetFastTier(%v) applied %v", tier, applied)
		}
		t.Run(tier.String(), func(t *testing.T) { fn(t, tier) })
	}
}

func TestSetFastTierClamps(t *testing.T) {
	defer tensor.SetFastTier(tensor.DetectedTier())
	if got := tensor.SetFastTier(tensor.TierAVX512 + 1); got > tensor.DetectedTier() {
		t.Fatalf("SetFastTier above detected applied %v, detected %v", got, tensor.DetectedTier())
	}
	if got := tensor.SetFastTier(-1); got != tensor.TierGeneric {
		t.Fatalf("SetFastTier(-1) applied %v, want generic", got)
	}
	if got := tensor.SetFastTier(tensor.DetectedTier()); got != tensor.DetectedTier() {
		t.Fatalf("SetFastTier(detected) applied %v", got)
	}
	if tensor.FastTier() != tensor.DetectedTier() {
		t.Fatalf("FastTier %v after restore, want %v", tensor.FastTier(), tensor.DetectedTier())
	}
}

// gemmShape is one (m, n, k) GEMM geometry with the worker counts to try.
type gemmShape struct{ m, n, k int }

// suiteGemmShapes enumerates the conv and FC GEMM geometries of all seven
// suite networks: conv layers lower to (outC/groups) x (outH*outW) with
// depth (inC/groups)*kh*kw per group, FC layers to FCOut x 1 with the
// flattened input as depth, and batch FC to FCOut x batch.  Column counts
// are clamped to keep the test affordable while preserving the exact
// remainder behaviour (n mod the widest vector tile is kept).
func suiteGemmShapes(t *testing.T) []gemmShape {
	t.Helper()
	nets, err := networks.All()
	if err != nil {
		t.Fatalf("networks.All: %v", err)
	}
	seen := make(map[gemmShape]bool)
	var shapes []gemmShape
	add := func(m, n, k int) {
		const maxCols = 160
		if n > maxCols {
			n = maxCols + n%32
		}
		s := gemmShape{m, n, k}
		if !seen[s] {
			seen[s] = true
			shapes = append(shapes, s)
		}
	}
	for _, net := range nets {
		for i := range net.Layers {
			l := &net.Layers[i]
			switch l.Type {
			case networks.LayerConv:
				p := l.Conv
				g := p.Groups
				if g == 0 {
					g = 1
				}
				shape := l.OutShape
				add(p.OutChannels/g, shape[1]*shape[2], p.InChannels/g*p.KernelH*p.KernelW)
			case networks.LayerFC:
				in := 1
				ref := l.Inputs[0]
				if ref == networks.InputRef {
					for _, d := range net.InputShape {
						in *= d
					}
				} else {
					for _, d := range net.Layers[ref].OutShape {
						in *= d
					}
				}
				add(l.FCOut, 8, in) // batched FC geometry
			case networks.LayerLSTM, networks.LayerGRU:
				add(l.Hidden, 8, l.InSize) // batched gate geometry
				add(l.Hidden, 8, l.Hidden)
			}
		}
	}
	return shapes
}

// maxRelErr returns the largest |got-want| / max(|want|, floor) over the
// m x n outputs (row stride ldb).
func maxRelErr(got, want []float32, m, n, ldb int, floor float64) float64 {
	var worst float64
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			g := float64(got[i*ldb+j])
			w := float64(want[i*ldb+j])
			den := math.Abs(w)
			if den < floor {
				den = floor
			}
			if e := math.Abs(g-w) / den; e > worst {
				worst = e
			}
		}
	}
	return worst
}

// TestGemmNNFastTiers checks every kernel tier against the bit-exact
// reference on every conv/FC geometry in the suite, with randomized
// contents, serial and parallel.
func TestGemmNNFastTiers(t *testing.T) {
	shapes := suiteGemmShapes(t)
	if len(shapes) < 10 {
		t.Fatalf("suite geometry enumeration found only %d shapes", len(shapes))
	}
	if testing.Short() && len(shapes) > 12 {
		shapes = shapes[:12]
	}
	rng := rand.New(rand.NewSource(7))
	forceTier(t, func(t *testing.T, tier tensor.SIMDTier) {
		for _, s := range shapes {
			a := randSlice(rng, s.m*s.k)
			b := randSlice(rng, s.k*s.n)
			bias := randSlice(rng, s.m)
			ref := make([]float32, s.m*s.n)
			tensor.GemmNN(ref, a, b, bias, s.m, s.n, s.k, s.n)
			pa := tensor.PackA(a, s.m, s.k)
			got := make([]float32, s.m*s.n)
			for _, workers := range []int{1, 3} {
				for i := range got {
					got[i] = float32(math.NaN())
				}
				tensor.GemmNNFastParallel(got, pa, b, bias, s.n, s.n, team(workers))
				// Error floor and bound scale with the reduction length;
				// the additive term covers near-cancelling small-depth sums.
				floor := 1e-3 * math.Sqrt(float64(s.k))
				tol := 1e-4 + 2e-5*math.Sqrt(float64(s.k))
				if err := maxRelErr(got, ref, s.m, s.n, s.n, floor); err > tol {
					t.Fatalf("tier %v shape %dx%dx%d workers %d: max rel err %.3g > %.3g",
						tier, s.m, s.n, s.k, workers, err, tol)
				}
			}
		}
	})
}

// TestGemmNNFastParallelIdentical: unlike the batch-size-dependent column
// tails, worker count never changes fast-tier results — row panels are
// tile-aligned and each element is produced by exactly one worker.
func TestGemmNNFastParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, n, k := 64, 529, 147
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	pa := tensor.PackA(a, m, k)
	serial := make([]float32, m*n)
	tensor.GemmNNFast(serial, pa, b, nil, n, n)
	par := make([]float32, m*n)
	for _, workers := range []int{2, 5, 8} {
		tensor.GemmNNFastParallel(par, pa, b, nil, n, n, team(workers))
		for i := range serial {
			if math.Float32bits(serial[i]) != math.Float32bits(par[i]) {
				t.Fatalf("workers=%d: element %d differs: %v vs %v", workers, i, par[i], serial[i])
			}
		}
	}
}

func TestMatVecFastTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][2]int{{10, 1024}, {4096, 9216}, {1000, 4096}, {128, 128}, {7, 33}, {5, 17}}
	if testing.Short() {
		shapes = shapes[:3]
	}
	forceTier(t, func(t *testing.T, tier tensor.SIMDTier) {
		for _, s := range shapes {
			rows, cols := s[0], s[1]
			w := randSlice(rng, rows*cols)
			x := randSlice(rng, cols)
			bias := randSlice(rng, rows)
			ref := make([]float32, rows)
			tensor.MatVecBias(ref, w, x, bias, rows, cols)
			got := make([]float32, rows)
			for _, workers := range []int{1, 4} {
				tensor.MatVecFastParallel(got, w, x, bias, rows, cols, team(workers))
				floor := 1e-3 * math.Sqrt(float64(cols))
				tol := 2e-5 * math.Sqrt(float64(cols))
				if err := maxRelErr(got, ref, rows, 1, 1, floor); err > tol {
					t.Fatalf("tier %v %dx%d workers %d: max rel err %.3g > %.3g", tier, rows, cols, workers, err, tol)
				}
			}
		}
	})
}

// TestGemmInt8TierExact: the int8 kernels accumulate exactly in int32, so
// every tier and worker count must produce identical float output.
func TestGemmInt8TierExact(t *testing.T) {
	shapes := []gemmShape{{8, 64, 27}, {96, 121, 363}, {32, 9, 800}, {12, 8, 4096}, {5, 13, 70}}
	type result struct {
		out []float32
	}
	results := make(map[int][]result)
	forceTier(t, func(t *testing.T, tier tensor.SIMDTier) {
		for si, s := range shapes {
			// Same seed per shape across tiers so inputs match.
			rs := rand.New(rand.NewSource(int64(100 + si)))
			w := randSlice(rs, s.m*s.k)
			b := randSlice(rs, s.k*s.n)
			bias := randSlice(rs, s.m)
			pw := tensor.PackInt8(w, s.m, s.k)
			bp := make([]uint8, tensor.Int8PackedLen(pw.KPad(), s.n))
			xScale := tensor.PackColsU8(bp, b, s.k, s.n, s.n, pw.KPad())
			acc := make([]int32, tensor.Int8AccLen(s.m, s.n))
			out := make([]float32, s.m*s.n)
			tensor.GemmInt8(out, pw, bp, acc, bias, xScale, s.n, nil)

			// Every worker count must match exactly.
			out4 := make([]float32, s.m*s.n)
			acc4 := make([]int32, tensor.Int8AccLen(s.m, s.n))
			tensor.GemmInt8(out4, pw, bp, acc4, bias, xScale, s.n, team(4))
			for i := range out {
				if math.Float32bits(out[i]) != math.Float32bits(out4[i]) {
					t.Fatalf("shape %v workers diverge at %d", s, i)
				}
			}

			// And against the float reference the quantized result must be
			// close in a Frobenius sense.
			ref := make([]float32, s.m*s.n)
			tensor.GemmNN(ref, w, b, bias, s.m, s.n, s.k, s.n)
			var num, den float64
			for i := range ref {
				d := float64(out[i] - ref[i])
				num += d * d
				den += float64(ref[i]) * float64(ref[i])
			}
			if den > 0 && math.Sqrt(num/den) > 0.05 {
				t.Fatalf("tier %v shape %v: int8 relative Frobenius error %.3g", tier, s, math.Sqrt(num/den))
			}
			results[si] = append(results[si], result{out: out})
		}
	})
	// Cross-tier bit equality.
	for si, rs := range results {
		for ti := 1; ti < len(rs); ti++ {
			for i := range rs[0].out {
				if math.Float32bits(rs[0].out[i]) != math.Float32bits(rs[ti].out[i]) {
					t.Fatalf("shape %d: tier %d differs from tier 0 at element %d: %v vs %v",
						si, ti, i, rs[ti].out[i], rs[0].out[i])
				}
			}
		}
	}
}

func TestMatVecInt8TierExact(t *testing.T) {
	shapes := [][2]int{{10, 256}, {1000, 4096}, {33, 50}, {4, 31}}
	var outs [][]float32
	forceTier(t, func(t *testing.T, tier tensor.SIMDTier) {
		var all []float32
		for si, s := range shapes {
			rs := rand.New(rand.NewSource(int64(200 + si)))
			rows, cols := s[0], s[1]
			w := randSlice(rs, rows*cols)
			x := randSlice(rs, cols)
			bias := randSlice(rs, rows)
			pw := tensor.PackInt8(w, rows, cols)
			xq := make([]uint8, pw.KPad())
			xScale := tensor.QuantizeU8(xq, x)
			out := make([]float32, rows)
			tensor.MatVecInt8(out, pw, xq, bias, xScale, nil)

			ref := make([]float32, rows)
			tensor.MatVecBias(ref, w, x, bias, rows, cols)
			var num, den float64
			for i := range ref {
				d := float64(out[i] - ref[i])
				num += d * d
				den += float64(ref[i]) * float64(ref[i])
			}
			if den > 0 && math.Sqrt(num/den) > 0.05 {
				t.Fatalf("tier %v shape %v: int8 matvec relative error %.3g", tier, s, math.Sqrt(num/den))
			}
			all = append(all, out...)
		}
		outs = append(outs, all)
	})
	for ti := 1; ti < len(outs); ti++ {
		for i := range outs[0] {
			if math.Float32bits(outs[0][i]) != math.Float32bits(outs[ti][i]) {
				t.Fatalf("tier %d int8 matvec differs from tier 0 at %d", ti, i)
			}
		}
	}
}

func TestPackAUnevenRows(t *testing.T) {
	// m not a multiple of the panel height exercises the remainder path.
	rng := rand.New(rand.NewSource(9))
	for _, m := range []int{1, 2, 3, 5, 7} {
		k, n := 65, 48
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		ref := make([]float32, m*n)
		tensor.GemmNN(ref, a, b, nil, m, n, k, n)
		got := make([]float32, m*n)
		tensor.GemmNNFast(got, tensor.PackA(a, m, k), b, nil, n, n)
		if err := maxRelErr(got, ref, m, n, n, 1e-3); err > 1e-4 {
			t.Fatalf("m=%d: max rel err %.3g", m, err)
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

// team returns an n-worker Team for the parallel kernels.
func team(n int) *tensor.Team { return &tensor.Team{Team: par.NewTeam(n)} }
