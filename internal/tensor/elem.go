package tensor

import "math"

// Elementwise kernels behind the activation, pooling and LRN layers.  Each
// scalar loop is its function's definition, the generic rung and every
// pooling stride but 2; from TierFMA up on the SIMD ladder (SetFastTier
// forces a lower rung) a kernel of elem_amd64.s writes the same bits.

// ReLU writes src to dst with every negative element, -Inf included, replaced
// by +0.  An element `v < 0` is false for keeps its bits: +0 and positives,
// but also -0 and every NaN, either sign, quiet or signalling — so this is not
// max(0, x), which would turn -0 into +0.  dst and src have the same length
// and may be the same slice.
func ReLU(dst, src []float32) {
	dst = dst[:len(src)]
	if fastTier >= TierFMA {
		reluAVX2(dst, src)
		return
	}
	for i, v := range src {
		if v < 0 {
			v = 0
		}
		dst[i] = v
	}
}

// PoolWindow pools a run of outputs of one row: each acc[i] takes, from its
// own value (the seed), every tap of its rows x cols window src[r*ld +
// i*stride + c] in (r, c) order — the larger of the two when maxPool, else
// one rounded float32 add (never fused).  A tap replaces a maximum only when
// greater, so a NaN tap never does and of two equal zeros the earlier stays;
// when a sum and its tap are both NaN, which payload the sum carries is not
// defined.  acc is not empty, rows and cols are positive and src reaches the
// last tap, (rows-1)*ld + (len(acc)-1)*stride + cols - 1; nothing past it is
// read.
func PoolWindow(acc, src []float32, ld, stride, rows, cols int, maxPool bool) {
	src = src[:(rows-1)*ld+(len(acc)-1)*stride+cols]
	if stride == 2 && fastTier >= TierFMA {
		poolWindow2AVX2(acc, src, ld, rows, cols, maxPool)
		return
	}
	for t := 0; t < rows*cols; t++ { // each tap across the run, (r, c) order
		tap := src[t/cols*ld+t%cols:]
		if !maxPool {
			for i := range acc {
				acc[i] += tap[i*stride]
			}
			continue
		}
		for i := range acc {
			if v := tap[i*stride]; v > acc[i] {
				acc[i] = v
			}
		}
	}
}

// LRNStep75 is one channel of the fast tiers' rolling LRN: dst[i] = src[i] /
// d^0.75, d = k + scale*sums[i], in float64 with the power as sqrt(d*sqrt(d))
// and one rounding to float32; then sums[i] gains the square of the plane
// entering the window and loses that of the one leaving (nil at the edges).
// Each operation is correctly rounded and none fused, so VSQRTPD/VDIVPD over
// whole groups of eight, on a channel with both planes, write this loop's
// bits.  All slices are at least len(dst) long.
func LRNStep75(dst, src []float32, sums []float64, add, sub []float32, k, scale float64) {
	i := 0
	if n := len(dst) &^ 7; n > 0 && add != nil && sub != nil && fastTier >= TierFMA {
		lrnStep75AVX(dst[:n], src, sums, add, sub, k, scale)
		i = n
	}
	for ; i < len(dst); i++ {
		d := k + float64(scale*sums[i])
		dst[i] = float32(float64(src[i]) / math.Sqrt(d*math.Sqrt(d)))
		if add != nil {
			sums[i] += float64(float64(add[i]) * float64(add[i]))
		}
		if sub != nil {
			sums[i] -= float64(float64(sub[i]) * float64(sub[i]))
		}
	}
}
