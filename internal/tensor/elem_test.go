package tensor

import (
	"math"
	"testing"
)

// elemSpecials are the values an ordered compare and a maximum treat
// specially; elemFill draws from them one time in three.
var elemSpecials = []uint32{
	0x80000000, 0x00000000, 0x7f800000, 0xff800000, // -0, +0, +Inf, -Inf
	0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, // quiet and signalling NaN, either sign
	0x80000001, 0x00000001, 0xbf800000, 0x3f800000, // denormals, -1, 1
}

func elemFill(r *RNG, dst []float32) {
	for i := range dst {
		if r.Uint64()%3 == 0 {
			dst[i] = math.Float32frombits(elemSpecials[r.Uint64()%uint64(len(elemSpecials))])
		} else {
			dst[i] = r.Float32()*2 - 1
		}
	}
}

// tieFill fills dst from signed zeros, -Inf and NaNs of either sign, so a
// window's maximum is often a tie of zeros that only the tap order decides.
func tieFill(r *RNG, dst []float32) {
	ties := []uint32{0x80000000, 0x00000000, 0xff800000, 0x7fc00000, 0xffc00001}
	for i := range dst {
		dst[i] = math.Float32frombits(ties[r.Uint64()%uint64(len(ties))])
	}
}

// windowLen is the source length PoolWindow reads for n outputs at stride 2:
// it ends on the last tap.
func windowLen(n, ld, rows, cols int) int { return (rows-1)*ld + 2*(n-1) + cols }

// TestElemKernelsMatchScalar: ReLU and PoolWindow at stride 2 on every vector
// rung against their own scalar loops, bit for bit, and the element behind
// each destination untouched.  ReLU takes every length 0..70 eight times
// (every tail width after zero to eight whole vectors); PoolWindow every run of 1..40
// outputs (a last group of each width 1..8 outputs) under every window of
// 1..3 rows and columns, max and add, with row strides from a row's last tap
// to two floats past it, over inputs salted with signed zeros, infinities
// and NaNs, or drawn from tieFill (max) or finite (add).  A sum of two NaNs
// may be either NaN.
func TestElemKernelsMatchScalar(t *testing.T) {
	r := NewRNG(31)
	same := func(got, want []float32, nanAny bool) int {
		for i := range want {
			if g, w := got[i], want[i]; math.Float32bits(g) != math.Float32bits(w) && !(nanAny && g != g && w != w) {
				return i
			}
		}
		return -1
	}
	scalar := func(fn func()) { // on the generic rung, then back on this one
		rung := FastTier()
		SetFastTier(TierGeneric)
		fn()
		SetFastTier(rung)
	}
	vectorRungs(t, func() {
		for k := 0; k < 8*71; k++ {
			n := k % 71
			src := make([]float32, n)
			elemFill(r, src)
			got, want := make([]float32, n+1), make([]float32, n+1)
			got[n], want[n] = -7, -7
			ReLU(got[:n], src)
			scalar(func() { ReLU(want[:n], src) })
			if i := same(got, want, false); i >= 0 {
				t.Fatalf("%v rung ReLU n=%d: element %d = %#x, scalar %#x", FastTier(), n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
		for n := 1; n <= 40; n++ {
			for rows := 1; rows <= 3; rows++ {
				for cols := 1; cols <= 3; cols++ {
					for _, maxPool := range []bool{true, false} {
						fill := elemFill
						if n%2 == 0 && maxPool {
							fill = tieFill
						} else if n%2 == 0 {
							fill = fillRand // finite sums, whose rounding shows the tap order
						}
						ld := 2*(n-1) + cols + n%3
						src := make([]float32, windowLen(n, ld, rows, cols))
						fill(r, src)
						got, want := make([]float32, n+1), make([]float32, n+1)
						fill(r, got[:n])
						got[n] = -7
						copy(want, got)
						PoolWindow(got[:n], src, ld, 2, rows, cols, maxPool)
						scalar(func() { PoolWindow(want[:n], src, ld, 2, rows, cols, maxPool) })
						if i := same(got, want, !maxPool); i >= 0 {
							t.Fatalf("%v rung PoolWindow max=%v n=%d %dx%d ld=%d: element %d = %#x, scalar %#x", FastTier(), maxPool, n, rows, cols, ld, i,
								math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	})
}

// BenchmarkReLU: CifarNet conv1's output (32x32x32), in place, per rung.
func BenchmarkReLU(b *testing.B) {
	d := make([]float32, 32*32*32)
	fillRand(NewRNG(5), d)
	for _, rung := range []string{"vector", "portable"} {
		b.Run(rung, func(b *testing.B) {
			if rung == "portable" {
				b.Cleanup(portable())
			} else if DetectedTier() < TierFMA {
				b.Skip("no vector rung on this host")
			}
			src := make([]float32, len(d))
			b.SetBytes(int64(4 * len(d)))
			for i := 0; i < b.N; i++ {
				copy(src, d) // half the elements are negative again
				ReLU(src, src)
			}
		})
	}
}
