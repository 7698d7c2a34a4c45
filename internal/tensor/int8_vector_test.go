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

// gatherSeed is one seed-corpus entry of FuzzGatherPanelU8: raw supplies the
// source bytes, the offsets that do not follow a pattern and the quantizers'
// float32 bit patterns; k and nc size the panel and the quantized plane;
// shape picks the offset patterns and the plane strides.
type gatherSeed struct {
	vals  []float32
	k, nc uint8
	shape uint8
	inv   float32
}

func gatherSeeds() []gatherSeed {
	// Exact ties: with inv a power of two, (n+0.5)/inv and its product with
	// inv are both exact, so the rounding sees n+0.5 itself.
	var ties []float32
	for n := 0; n < 127; n++ {
		ties = append(ties, (float32(n)+0.5)/4, -(float32(n)+0.5)/4)
	}
	denormal := math.Float32frombits(1)
	edge := []float32{31.75, -31.75, 0, float32(math.Copysign(0, -1)), denormal, -denormal,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x007fffff), 0.125, -0.125, 31.625, -31.625, 3e9, -3e9}
	return []gatherSeed{
		{ties, 8, 32, 0, 4},                  // two whole tiles of dword runs
		{edge, 8, 33, 0, 4},                  // and one ragged column
		{ties, 12, 16, 1, 4},                 // strided columns
		{edge, 7, 15, 1, 4},                  // a partial depth block, one short tile
		{ties, 16, 48, 2, 4},                 // arbitrary columns
		{edge, 5, 9, 2, 4},                   // k%4 = 1, nc%8 = 1
		{ties, 8, 32, 3, 4},                  // two rows swapped, dword runs
		{edge, 13, 31, 3, 4},                 // two rows swapped, a ragged tile
		{ties, 4, 16, 4, 4},                  // one block, one tile
		{edge, 33, 17, 5, 4},                 // past one kPad unit
		{ties, 1, 1, 6, 4},                   // one byte
		{edge, 3, 7, 7, 4},                   // a lone partial block
		{ties, 36, 64, 28, 4},                // consecutive byte columns, as in a depthwise layer
		{edge, 24, 40, 9, 4},                 // 40-column planes for the quantizers
		{ties, 32, 169, 10, 4},               // AlexNet's 13x13 panel, 9 columns in the last tile
		{edge, 11, 23, 11, 4},                // swapped rows, strided columns
		{ties, 20, 50, 12, 127 / float32(3)}, // a scale that is not a power of two
		{edge, 8, 8, 13, 1e30},               // every nonzero product out of range
	}
}

// gatherOffsets builds a k-row, nc-column offset pair into a src of n bytes
// from the shape byte: rows in adjacent 4-byte blocks (shape%4 != 3) or
// shuffled, columns as one dword run per tile (shape%3 == 0), a constant
// stride, or arbitrary.
func gatherOffsets(raw []byte, k, nc, n int, shape uint8) (rowOff, colOff []int32) {
	at := 0
	next := func(limit int) int32 {
		v := int(raw[at%len(raw)]) | int(raw[(at+1)%len(raw)])<<8
		at += 2
		return int32(v % limit)
	}
	half := n / 2
	rowOff = make([]int32, k)
	for l := range rowOff {
		if l%4 == 0 {
			rowOff[l] = next(half - 4)
		} else {
			rowOff[l] = rowOff[l-1] + 1
		}
	}
	if shape%4 == 3 && k > 1 {
		i, j := int(next(k)), int(next(k))
		rowOff[i], rowOff[j] = rowOff[j], rowOff[i]+int32(i%2)
	}
	colOff = make([]int32, nc)
	stride := 1 + int32(shape%7)
	for j := range colOff {
		switch shape % 3 {
		case 0:
			colOff[j] = int32(4*j) % int32(half-3)
		case 1:
			colOff[j] = int32(j) * stride % int32(half)
		default:
			colOff[j] = next(half)
		}
	}
	return rowOff, colOff
}

// FuzzGatherPanelU8 holds the int8 convolution's staging to its definitions.
// GatherPanelU8 on every rung must write exactly the bytes of the byte-loop
// definition — including the zeroed pad rows and columns — for offset tables
// that do and do not form adjacent depth blocks and dword runs.  And both
// plane quantizers (one byte per pixel, and channel quads) must match their
// scalar loop on every rung for arbitrary float32 bit patterns and scales,
// leaving the row gaps of a padded destination untouched.
func FuzzGatherPanelU8(f *testing.F) {
	for _, s := range gatherSeeds() {
		raw := make([]byte, 4*len(s.vals))
		for i, v := range s.vals {
			binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
		}
		f.Add(raw, s.k, s.nc, s.shape, math.Float32bits(s.inv))
	}
	f.Fuzz(func(t *testing.T, raw []byte, k, nc, shape uint8, invBits uint32) {
		if len(raw) < 4 {
			return
		}
		kI, ncI := 1+int(k%72), 1+int(nc)
		kPad := (kI + int8KPad - 1) &^ (int8KPad - 1)
		src := make([]uint8, 2048)
		for i := range src {
			src[i] = raw[i%len(raw)] ^ uint8(i)
		}
		rowOff, colOff := gatherOffsets(raw, kI, ncI, len(src), shape)
		want := make([]uint8, Int8PackedLen(kPad, ncI))
		for l := 0; l < kI; l++ {
			for j := 0; j < ncI; j++ {
				want[(j/int8NR)*kPad*int8NR+(l/4)*int8NR*4+(j%int8NR)*4+l%4] = src[rowOff[l]+colOff[j]]
			}
		}
		forRungs(TierGeneric, func() {
			got := make([]uint8, len(want))
			for i := range got {
				got[i] = 0xa5
			}
			GatherPanelU8(got, src, rowOff, colOff, kI, ncI, kPad)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v rung gather k=%d nc=%d shape=%d: byte %d = %#x, want %#x", FastTier(), kI, ncI, shape, i, got[i], want[i])
				}
			}
		})

		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		inv := math.Float32frombits(invBits)
		rows, cols := 1+kI%3, 1+ncI%40
		for _, lanes := range []int{1, 4} {
			planeStride := rows*cols + int(shape%3)
			ldd := cols*lanes + int(shape%5)
			in := make([]float32, (lanes-1)*planeStride+rows*cols)
			for i := range in {
				in[i] = vals[i%len(vals)]
			}
			var ref []uint8
			forRungs(TierGeneric, func() {
				got := make([]uint8, (rows-1)*ldd+cols*lanes+3)
				for i := range got {
					got[i] = 0xa5
				}
				QuantizePlaneU8(got, in, lanes, rows, cols, planeStride, ldd, inv)
				if ref == nil {
					ref = got
					for y := 0; y < rows; y++ {
						for x := 0; x < cols; x++ {
							for r := 0; r < lanes; r++ {
								want := uint8(roundHalfAway(float32(in[r*planeStride+y*cols+x]*inv)) + 128)
								if b := got[y*ldd+x*lanes+r]; b != want {
									t.Fatalf("generic rung lanes=%d %dx%d: pixel (%d, %d) lane %d = %#x, want %#x", lanes, rows, cols, y, x, r, b, want)
								}
							}
						}
					}
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%v rung lanes=%d %dx%d ldd=%d inv=%v: byte %d = %#x, scalar %#x",
							FastTier(), lanes, rows, cols, ldd, inv, i, got[i], ref[i])
					}
				}
			})
			for i, b := range ref {
				if y, x := i/ldd, i%ldd; (y >= rows || x >= cols*lanes) && b != 0xa5 {
					t.Fatalf("lanes=%d %dx%d ldd=%d: gap byte %d written", lanes, rows, cols, ldd, i)
				}
			}
		}
	})
}

// TestPackColsU8VectorMatchesScalar: the one-shot pack (max-abs scan plus the
// quantize-and-interleave core, with a row stride wider than n, a NaN and a
// -0 in the first row) writes the same bytes and returns the same scale on
// every rung.
func TestPackColsU8VectorMatchesScalar(t *testing.T) {
	r := NewRNG(17)
	for _, g := range [][3]int{{37, 173, 180}, {363, 512, 512}, {5, 7, 9}, {32, 8, 8}, {70, 169, 200}} {
		k, n, ldb := g[0], g[1], g[2]
		b := make([]float32, k*ldb)
		fillRand(r, b)
		b[3], b[5] = float32(math.NaN()), float32(math.Copysign(0, -1)) // a NaN quantizes to 128 on every rung
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
						GemmInt8(got, pw, bp, make([]int32, Int8AccLen(m, n)), bias, xScale, n, newTeam(workers))
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
