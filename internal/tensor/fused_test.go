package tensor_test

import (
	"math"
	"math/rand"
	"testing"

	"tango/internal/tensor"
)

// Tests of the panel kernel layer: the reference and fast B-panel
// accumulators (NCHW-destination writes) and the int8 panel gather that
// together let nn's convolution core stream patches panel by panel instead
// of staging a whole l-major patch matrix.

// fillPanel copies the kc x nc slab of b covering depth rows [kb, kb+kc)
// and columns [p0, p0+nc) into compact row-major layout (stride nc).
func fillPanel(panel, b []float32, ldb, kb, kc, p0, nc int) {
	for l := 0; l < kc; l++ {
		copy(panel[l*nc:(l+1)*nc], b[(kb+l)*ldb+p0:(kb+l)*ldb+p0+nc])
	}
}

// runFusedPanels computes dst = a.b + bias through GemmNNFastAccumPanel,
// walking a (kcStep, ncStep) grid like nn's fused convolution.  slack adds
// spare capacity to the panel's backing array: with slack >= 16 the sub-16
// column tails run the vector spill path, with slack 0 they fall back to
// the scalar kernel.
func runFusedPanels(dst []float32, pa *tensor.PackedA, b, bias []float32, n, k, ncStep, kcStep, slack int) {
	buf := make([]float32, ncStep*kcStep+slack)
	for p0 := 0; p0 < n; p0 += ncStep {
		nc := ncStep
		if p0+nc > n {
			nc = n - p0
		}
		for kb := 0; kb < k; kb += kcStep {
			kc := kcStep
			if kb+kc > k {
				kc = k - kb
			}
			panel := buf[:kc*nc]
			fillPanel(panel, b, n, kb, kc, p0, nc)
			tensor.GemmNNFastAccumPanel(dst[p0:], pa, panel, bias, kb, kc, nc, n)
		}
	}
}

// TestGemmNNAccumPanelBitwise: the reference panel kernel walked over a
// panel grid must equal GemmNN bit for bit on both rungs, for grids with
// column tails narrower than one vector and depth tails, whole or split into
// row ranges, with a padded destination stride whose gap columns stay
// untouched.
func TestGemmNNAccumPanelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, rung := range []string{"detected", "portable"} {
		t.Run(rung, func(t *testing.T) {
			if rung == "portable" {
				tensor.SetFastTier(tensor.TierGeneric)
				t.Cleanup(func() { tensor.SetFastTier(tensor.DetectedTier()) })
			}
			for _, s := range []gemmShape{{10, 173, 65}, {14, 512, 300}, {1, 31, 9}, {9, 513, 257}} {
				a := randSlice(rng, s.m*s.k)
				b := randSlice(rng, s.k*s.n)
				bias := randSlice(rng, s.m)
				want := make([]float32, s.m*s.n)
				tensor.GemmNN(want, a, b, bias, s.m, s.n, s.k, s.n)
				ldd := s.n + 13
				for _, g := range []struct{ nc, kc, rows int }{{512, 256, s.m}, {64, 32, s.m}, {45, 50, 4}, {512, 256, 3}} {
					got := make([]float32, s.m*ldd)
					for i := range got {
						got[i] = float32(math.NaN())
					}
					panel := make([]float32, g.nc*g.kc)
					for p0 := 0; p0 < s.n; p0 += g.nc {
						nc := min(g.nc, s.n-p0)
						for kb := 0; kb < s.k; kb += g.kc {
							kc := min(g.kc, s.k-kb)
							fillPanel(panel, b, s.n, kb, kc, p0, nc)
							for r0 := 0; r0 < s.m; r0 += g.rows {
								tensor.GemmNNAccumPanel(got[p0:], a, panel[:kc*nc], bias, s.k, kb, kc, nc, ldd, r0, min(r0+g.rows, s.m))
							}
						}
					}
					for i := 0; i < s.m; i++ {
						for j := 0; j < ldd; j++ {
							v := got[i*ldd+j]
							if j >= s.n {
								if !math.IsNaN(float64(v)) {
									t.Fatalf("%v grid %+v: gap column (%d,%d) overwritten", s, g, i, j)
								}
							} else if math.Float32bits(v) != math.Float32bits(want[i*s.n+j]) {
								t.Fatalf("%v grid %+v: (%d,%d) = %x, GemmNN %x", s, g, i, j,
									math.Float32bits(v), math.Float32bits(want[i*s.n+j]))
							}
						}
					}
				}
			}
		})
	}
}

// TestGemmNNFastAccumPanelComposes: walking ascending depth slabs over
// column panels must reproduce the full product within the fast tier's
// tolerance on every tier, for panel grids with and without column/depth
// tails, with and without spill slack in the panel buffer.
func TestGemmNNFastAccumPanelComposes(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	shapes := []gemmShape{{8, 173, 147}, {10, 169, 96}, {4, 31, 9}, {9, 512, 50}}
	grids := []struct{ nc, kc, slack int }{
		{512, 256, 16}, // production fused grid, single panel for small n
		{64, 32, 16},   // many panels, vector spill tails
		{48, 50, 0},    // unaligned grid, scalar tail fallback
	}
	forceTier(t, func(t *testing.T, tier tensor.SIMDTier) {
		for _, s := range shapes {
			a := randSlice(rng, s.m*s.k)
			b := randSlice(rng, s.k*s.n)
			bias := randSlice(rng, s.m)
			ref := make([]float32, s.m*s.n)
			tensor.GemmNN(ref, a, b, bias, s.m, s.n, s.k, s.n)
			pa := tensor.PackA(a, s.m, s.k)
			floor := 1e-3 * math.Sqrt(float64(s.k))
			tol := 1e-4 + 2e-5*math.Sqrt(float64(s.k))
			for _, g := range grids {
				got := make([]float32, s.m*s.n)
				for i := range got {
					got[i] = float32(math.NaN())
				}
				runFusedPanels(got, pa, b, bias, s.n, s.k, g.nc, g.kc, g.slack)
				if err := maxRelErr(got, ref, s.m, s.n, s.n, floor); err > tol {
					t.Fatalf("tier %v shape %dx%dx%d grid (%d,%d,slack %d): max rel err %.3g > %.3g",
						tier, s.m, s.n, s.k, g.nc, g.kc, g.slack, err, tol)
				}
			}
		}
	})
}

// TestGemmNNFastAccumPanelGridInvariant: with spill slack available, the
// per-element summation order depends only on the depth-slab walk — full
// 4-row tiles feed every column through the same FMA chain whether it sits
// in the vector body or the spill tail.  Different column-panel widths over
// the same kc grid must therefore produce identical bytes (this is what
// makes the fused batched conv deterministic for any per-image panel grid).
func TestGemmNNFastAccumPanelGridInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, n, k := 8, 173, 96
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	bias := randSlice(rng, m)
	forceTier(t, func(t *testing.T, tier tensor.SIMDTier) {
		pa := tensor.PackA(a, m, k)
		base := make([]float32, m*n)
		runFusedPanels(base, pa, b, bias, n, k, n, 32, 16)
		for _, nc := range []int{64, 48, 173} {
			got := make([]float32, m*n)
			runFusedPanels(got, pa, b, bias, n, k, nc, 32, 16)
			for i := range base {
				if math.Float32bits(got[i]) != math.Float32bits(base[i]) {
					t.Fatalf("tier %v nc=%d: element %d differs: %v vs %v",
						tier, nc, i, got[i], base[i])
				}
			}
		}
	})
}

// TestGatherPanelU8MatchesPackCols: quantizing once and gathering bytes is
// quantizing the gathered floats.  A k x n matrix quantized by QuantizeU8
// (the same scale PackColsU8 derives) and gathered through GatherPanelU8 must
// give exactly PackColsU8's bytes on every rung, from the l-major copy (rows
// n bytes apart: the byte loop) and from the transposed one (each column's
// depth contiguous: whole dword blocks).
func TestGatherPanelU8MatchesPackCols(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, g := range [][2]int{{37, 173}, {4, 64}, {64, 169}} {
		k, n := g[0], g[1]
		kPad := (k + 31) &^ 31
		b := randSlice(rng, k*n)
		bT := make([]float32, k*n)
		for l := 0; l < k; l++ {
			for j := 0; j < n; j++ {
				bT[j*k+l] = b[l*n+j]
			}
		}
		forceTier(t, func(t *testing.T, tier tensor.SIMDTier) {
			want := make([]uint8, tensor.Int8PackedLen(kPad, n))
			scale := tensor.PackColsU8(want, b, k, n, n, kPad)
			for _, order := range []struct {
				name             string
				src              []float32
				rowStep, colStep int32
			}{{"l-major", b, int32(n), 1}, {"transposed", bT, 1, int32(k)}} {
				q := make([]uint8, k*n)
				if s := tensor.QuantizeU8(q, order.src); s != scale {
					t.Fatalf("tier %v %s: QuantizeU8 scale %v, PackColsU8 %v", tier, order.name, s, scale)
				}
				rowOff, colOff := make([]int32, k), make([]int32, n)
				for l := range rowOff {
					rowOff[l] = int32(l) * order.rowStep
				}
				for j := range colOff {
					colOff[j] = int32(j) * order.colStep
				}
				got := make([]uint8, len(want))
				for i := range got {
					got[i] = 0xa5
				}
				tensor.GatherPanelU8(got, q, rowOff, colOff, k, n, kPad)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("tier %v %s k=%d n=%d: packed byte %d = %d, PackColsU8 %d", tier, order.name, k, n, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestGemmInt8PanelMatchesGemmInt8: integer accumulation is exact, so the
// fused panel walk must reproduce the staged int8 GEMM of the portable rung
// bit for bit on every tier, for any panel grid sharing the activation scale
// — with m%4 remainder rows, every nc%8 tail, and acc sized exactly m*nc: the
// ragged last tile's temporary must not write past that contract (a canary
// sits right behind it).
func TestGemmInt8PanelMatchesGemmInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, k, canary = 173, 37, int32(-0x5a5a5a5b)
	for _, m := range []int{10, 8, 7, 1} {
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		bias := randSlice(rng, m)
		var want []float32
		forceTier(t, func(t *testing.T, tier tensor.SIMDTier) {
			pw := tensor.PackInt8(a, m, k)
			kPad := pw.KPad()
			bp := make([]uint8, tensor.Int8PackedLen(kPad, n))
			scale := tensor.PackColsU8(bp, b, k, n, n, kPad)
			if tier == tensor.TierGeneric {
				want = make([]float32, m*n)
				tensor.GemmInt8(want, pw, bp, make([]int32, tensor.Int8AccLen(m, n)), bias, scale, n, nil)
			}

			q := make([]uint8, k*n)
			tensor.QuantizeU8(q, b)
			rowOff, colOff := make([]int32, k), make([]int32, n)
			for l := range rowOff {
				rowOff[l] = int32(l * n)
			}
			for j := range colOff {
				colOff[j] = int32(j)
			}
			for _, ncStep := range []int{64, 48, 173, 41, 42, 43, 44, 45, 46, 47, 5} {
				got := make([]float32, m*n)
				u8p := make([]uint8, tensor.Int8PackedLen(kPad, ncStep))
				for p0 := 0; p0 < n; p0 += ncStep {
					nc := ncStep
					if p0+nc > n {
						nc = n - p0
					}
					tensor.GatherPanelU8(u8p, q, rowOff, colOff[p0:p0+nc], k, nc, kPad)
					accLen := tensor.Int8AccLen(m, nc)
					back := make([]int32, accLen+64)
					for i := range back {
						back[i] = canary
					}
					tensor.GemmInt8Panel(got[p0:], pw, u8p, back[:accLen:accLen], bias, scale, nc, n)
					for i, v := range back[accLen:] {
						if v != canary {
							t.Fatalf("tier %v m=%d nc=%d: wrote %d past acc[Int8AccLen] at +%d", tier, m, nc, v, i)
						}
					}
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("tier %v m=%d nc=%d: element %d differs: %v vs %v",
							tier, m, ncStep, i, got[i], want[i])
					}
				}
			}
		})
	}
}
