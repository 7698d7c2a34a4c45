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

// TestElemKernelsMatchScalar: ReLU, and MaxStride and AddStride at stride 2,
// on the vector rung against their own scalar loops, every length 0..70 (so every tail
// width after zero to eight whole vectors), both source lengths a stride-2
// run can have, inputs salted with signed zeros, infinities and NaNs, bit for
// bit — and the element behind each destination untouched.  A sum of two NaNs
// may be either NaN.
func TestElemKernelsMatchScalar(t *testing.T) {
	if DetectedTier() < TierFMA {
		t.Skip("no vector rung on this host")
	}
	r := NewRNG(31)
	same := func(got, want []float32, nanAny bool) int {
		for i := range want {
			if g, w := got[i], want[i]; math.Float32bits(g) != math.Float32bits(w) && !(nanAny && g != g && w != w) {
				return i
			}
		}
		return -1
	}
	kernels := []struct {
		name   string
		fn     func(acc, src []float32, stride int)
		nanAny bool
	}{{"MaxStride", MaxStride, false}, {"AddStride", AddStride, true}}
	for n := 0; n <= 70; n++ {
		for rep := 0; rep < 8; rep++ {
			src := make([]float32, n)
			elemFill(r, src)
			got, want := make([]float32, n+1), make([]float32, n+1)
			got[n], want[n] = -7, -7
			ReLU(got[:n], src)
			restore := portable()
			ReLU(want[:n], src)
			restore()
			if i := same(got, want, false); i >= 0 {
				t.Fatalf("ReLU n=%d: element %d = %#x, scalar %#x", n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
			if n == 0 {
				continue // the stride kernels take a non-empty acc
			}
			for _, k := range kernels {
				taps := make([]float32, 2*n-rep%2)
				elemFill(r, taps)
				elemFill(r, got[:n])
				copy(want, got)
				k.fn(got[:n], taps, 2)
				restore := portable()
				k.fn(want[:n], taps, 2)
				restore()
				if i := same(got, want, k.nanAny); i >= 0 {
					t.Fatalf("%s n=%d len(src)=%d: element %d = %#x, scalar %#x", k.name, n, len(taps), i,
						math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
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
