package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// Differential tests of the int8 tier's vector preparation routines against
// the scalar loops they replace: every byte, on every rung the host has.

// forRungs runs fn under each SIMD rung from `from` up to the detected one,
// then restores the detected tier.
func forRungs(from SIMDTier, fn func()) {
	defer SetFastTier(DetectedTier())
	for tier := from; tier <= DetectedTier(); tier++ {
		SetFastTier(tier)
		fn()
	}
}

// vectorRungs runs fn under each vector rung the host can force.
func vectorRungs(t *testing.T, fn func()) {
	t.Helper()
	if DetectedTier() < TierFMA {
		t.Skip("no vector rung on this host")
	}
	forRungs(TierFMA, fn)
}

// checkQuantizeTiles quantizes the kc x nc slab src (row stride lds) at depth
// kb through the dispatching core and through the scalar loop alone, and
// compares the two buffers byte for byte — including the bytes neither may
// touch, which start out as a sentinel.
func checkQuantizeTiles(t *testing.T, src []float32, kb, kc, nc, lds int, inv float32) {
	t.Helper()
	kPad := (kb + kc + int8KPad - 1) &^ (int8KPad - 1)
	want := make([]uint8, Int8PackedLen(kPad, nc))
	got := make([]uint8, len(want))
	for i := range want {
		want[i], got[i] = 0xa5, 0xa5
	}
	quantizeTilesScalar(want, src, kb, 0, kc, 0, nc, lds, kPad, inv)
	vectorRungs(t, func() {
		quantizeTilesU8(got, src, kb, kc, nc, lds, kPad, inv)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v rung kb=%d kc=%d nc=%d lds=%d inv=%v: byte %d = %#x, scalar %#x",
					FastTier(), kb, kc, nc, lds, inv, i, got[i], want[i])
			}
		}
	})
}

// quantizeSeed is one seed-corpus entry of FuzzQuantizePanelU8.
type quantizeSeed struct {
	vals       []float32
	kb, kc, nc uint8
	pad        uint8
	inv        float32
}

func quantizeSeeds() []quantizeSeed {
	// Exact ties: with inv a power of two, (n+0.5)/inv and its product with
	// inv are both exact, so the rounding sees n+0.5 itself.
	var ties []float32
	for n := 0; n < 127; n++ {
		ties = append(ties, (float32(n)+0.5)/4, -(float32(n)+0.5)/4)
	}
	denormal := math.Float32frombits(1)
	edge := []float32{31.75, -31.75, 0, float32(math.Copysign(0, -1)), denormal, -denormal,
		math.Float32frombits(0x007fffff), 0.125, -0.125, 31.625, -31.625}
	return []quantizeSeed{
		{ties, 0, 8, 33, 0, 4},
		{ties, 4, 7, 15, 3, 4},
		{edge, 0, 4, 8, 0, 4},
		{edge, 0, 5, 9, 0, 4},   // kc%4 = 1, nc%8 = 1
		{edge, 8, 6, 10, 1, 4},  // kc%4 = 2, nc%8 = 2
		{ties, 0, 11, 11, 0, 4}, // kc%4 = 3, nc%8 = 3
		{ties, 0, 12, 12, 5, 4},
		{ties, 4, 16, 13, 0, 4},
		{edge, 0, 9, 14, 0, 4},
		{ties, 0, 13, 23, 2, 4}, // nc%8 = 7
		{ties, 2, 8, 16, 0, 4},  // kb%4 != 0: the whole slab is scalar
		{ties, 7, 9, 24, 0, 4},
		{edge, 0, 8, 5, 0, 4},                  // nc < 8
		{ties, 0, 32, 40, 0, 127 / float32(3)}, // a scale that is not a power of two
		{ties, 0, 8, 16 - 1, 0, 4},             // nc = 16: one whole tile
		{edge, 4, 9, 17 - 1, 2, 4},             // nc = 17: a tile and one column
		{ties, 0, 12, 31 - 1, 0, 4},            // nc = 31: an even half, then 7 ragged columns
		{ties, 0, 8, 169 - 1, 3, 4},            // nc = 169: AlexNet's 13x13 panel, 9 columns in the last tile
	}
}

// FuzzQuantizePanelU8 feeds arbitrary float32 bit patterns, geometries and
// scales to the quantize-and-interleave core.  The vector routine truncates
// and narrows exactly as the scalar expression does, so the bytes must agree
// for every input, in range or not.
func FuzzQuantizePanelU8(f *testing.F) {
	for _, s := range quantizeSeeds() {
		raw := make([]byte, 4*len(s.vals))
		for i, v := range s.vals {
			binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
		}
		f.Add(raw, s.kb, s.kc, s.nc, s.pad, math.Float32bits(s.inv))
	}
	f.Fuzz(func(t *testing.T, raw []byte, kb, kc, nc, pad uint8, invBits uint32) {
		if len(raw) < 4 {
			return
		}
		kbI, kcI, ncI := int(kb%32), 1+int(kc%40), 1+int(nc)
		lds := ncI + int(pad%8)
		src := make([]float32, kcI*lds)
		for i := range src {
			at := 4 * (i % (len(raw) / 4))
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[at:]))
		}
		checkQuantizeTiles(t, src, kbI, kcI, ncI, lds, math.Float32frombits(invBits))
	})
}

// TestPackColsU8VectorMatchesScalar: the one-shot pack (max-abs scan plus the
// shared core, with a row stride wider than n) writes the same bytes and
// returns the same scale on every rung.
func TestPackColsU8VectorMatchesScalar(t *testing.T) {
	r := NewRNG(17)
	for _, g := range [][3]int{{37, 173, 180}, {363, 512, 512}, {5, 7, 9}, {32, 8, 8}, {70, 169, 200}} {
		k, n, ldb := g[0], g[1], g[2]
		b := make([]float32, k*ldb)
		fillRand(r, b)
		kPad := (k + int8KPad - 1) &^ (int8KPad - 1)
		SetFastTier(TierGeneric)
		want := make([]uint8, Int8PackedLen(kPad, n))
		wantScale := PackColsU8(want, b, k, n, ldb, kPad)
		vectorRungs(t, func() {
			got := make([]uint8, len(want))
			for i := range got {
				got[i] = 0xa5
			}
			if s := PackColsU8(got, b, k, n, ldb, kPad); s != wantScale {
				t.Fatalf("%v rung k=%d n=%d: scale %v, scalar %v", FastTier(), k, n, s, wantScale)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v rung k=%d n=%d: byte %d = %#x, scalar %#x", FastTier(), k, n, i, got[i], want[i])
				}
			}
		})
	}
}

// TestPackInt8VectorMatchesScalar packs AlexNet's fc6 (4096 x 9216; 64 rows
// under -short) and two shapes with a ragged row tail on the generic rung
// and on every vector rung, and compares every byte, scale and compensation
// term.  Exact ties and signed zeros ride in row 0 (scale 1), an infinity
// and a NaN in row 1.
func TestPackInt8VectorMatchesScalar(t *testing.T) {
	fc6 := 4096
	if testing.Short() {
		fc6 = 64
	}
	r := NewRNG(19)
	for _, g := range [][2]int{{fc6, 9216}, {37, 363}, {5, 13}, {3, 7}} {
		m, k := g[0], g[1]
		a := make([]float32, m*k)
		fillRand(r, a)
		ties := []float32{63, -63, 0.5, -0.5, 31.5, -31.5, 0, float32(math.Copysign(0, -1)), 62.5, -62.5, 1e-40}
		copy(a, ties[:min(len(ties), k)])
		copy(a[k:], []float32{float32(math.Inf(1)), float32(math.NaN()), -1, 1}[:min(4, k)])
		SetFastTier(TierGeneric)
		want := PackInt8(a, m, k)
		vectorRungs(t, func() {
			got := PackInt8(a, m, k)
			for i := range want.wq {
				if got.wq[i] != want.wq[i] {
					t.Fatalf("%v rung %dx%d: weight byte %d = %d, scalar %d", FastTier(), m, k, i, got.wq[i], want.wq[i])
				}
			}
			for i := range want.scales {
				if math.Float32bits(got.scales[i]) != math.Float32bits(want.scales[i]) || got.comp[i] != want.comp[i] {
					t.Fatalf("%v rung %dx%d: row %d scale/comp %v/%d, scalar %v/%d",
						FastTier(), m, k, i, got.scales[i], got.comp[i], want.scales[i], want.comp[i])
				}
			}
		})
	}
}

// TestGemmInt8PanelMatchesScalar pins the int8 product itself, kernel tile
// shape, ragged edges and dequantization together: GemmInt8 (1 and 4 workers)
// and GemmInt8Panel (output rows wider than the panel) against an oracle that
// never sees the tile layout — quantize every activation with the tier's one
// rounding, sum w*u8 in int32, dequantize as gemmInt8Rows does — bit for bit,
// on every rung.  m, n and k straddle every row tile, column tile and depth
// block a kernel may use; -short keeps two ragged m.
func TestGemmInt8PanelMatchesScalar(t *testing.T) {
	ms := []int{1, 3, 4, 5, 8, 12, 13, 96}
	if testing.Short() {
		ms = []int{3, 13}
	}
	r := NewRNG(23)
	for _, m := range ms {
		for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 31, 169, 217, 512} {
			for _, k := range []int{1, 31, 32, 33, 363, 1200} {
				a := make([]float32, m*k)
				b := make([]float32, k*n)
				fillRand(r, a)
				fillRand(r, b)
				var bias []float32
				if (m+n+k)%2 == 0 {
					bias = make([]float32, m)
					fillRand(r, bias)
				}
				xScale := U8Scale(MaxAbs(b))
				inv := 1 / xScale
				q := make([]int32, len(b))
				for i, v := range b {
					q[i] = roundHalfAway(float32(v*inv)) + 128
				}
				var want []float32
				forRungs(TierGeneric, func() {
					pw := PackInt8(a, m, k)
					if want == nil { // PackInt8 is rung-independent (TestPackInt8VectorMatchesScalar)
						want = make([]float32, m*n)
						for i := 0; i < m; i++ {
							f := pw.scales[i] * xScale
							for j := 0; j < n; j++ {
								var s int32
								for l := 0; l < k; l++ {
									s += int32(pw.wq[i*pw.kPad+l]) * q[l*n+j]
								}
								want[i*n+j] = float32(float32(s-pw.comp[i]) * f)
								if bias != nil {
									want[i*n+j] += bias[i]
								}
							}
						}
					}
					bp := make([]uint8, Int8PackedLen(pw.kPad, n))
					if s := PackColsU8(bp, b, k, n, n, pw.kPad); s != xScale {
						t.Fatalf("%v rung: activation scale %v, want %v", FastTier(), s, xScale)
					}
					check := func(what string, got []float32, ldd int) {
						t.Helper()
						for i := 0; i < m; i++ {
							for j := 0; j < ldd; j++ {
								w := float32(-7) // the sentinel: columns past n stay untouched
								if j < n {
									w = want[i*n+j]
								}
								if g := got[i*ldd+j]; math.Float32bits(g) != math.Float32bits(w) {
									t.Fatalf("%v rung %s m=%d n=%d k=%d: [%d][%d] = %v, want %v", FastTier(), what, m, n, k, i, j, g, w)
								}
							}
						}
					}
					for _, workers := range []int{1, 4} {
						got := make([]float32, m*n)
						GemmInt8(got, pw, bp, make([]int32, Int8AccLen(m, n)), bias, xScale, n, workers)
						check(fmt.Sprintf("GemmInt8/w%d", workers), got, n)
					}
					ldd := n + 3
					got := make([]float32, m*ldd)
					for i := range got {
						got[i] = -7
					}
					GemmInt8Panel(got, pw, bp, make([]int32, Int8AccLen(m, n)), bias, xScale, n, ldd)
					check("GemmInt8Panel", got, ldd)
				})
			}
		}
	}
}
