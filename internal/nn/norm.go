package nn

import (
	"fmt"
	"math"

	"tango/internal/tensor"
)

// LRNParams describes AlexNet-style local response normalization across
// channels.
type LRNParams struct {
	// LocalSize is the number of channels the normalization window spans.
	LocalSize int
	Alpha     float64
	Beta      float64
	K         float64
}

// DefaultLRN returns the AlexNet reference parameters (n=5, alpha=1e-4,
// beta=0.75, k=2).
func DefaultLRN() LRNParams {
	return LRNParams{LocalSize: 5, Alpha: 1e-4, Beta: 0.75, K: 2}
}

// Validate checks the parameters for internal consistency.
func (p LRNParams) Validate() error {
	if p.LocalSize <= 0 {
		return fmt.Errorf("nn: lrn local size must be positive, got %d", p.LocalSize)
	}
	if p.Beta < 0 || p.Alpha < 0 {
		return fmt.Errorf("nn: lrn alpha/beta must be non-negative, got %v/%v", p.Alpha, p.Beta)
	}
	return nil
}

// lrnPart normalizes units [u0, u1) of sample smp: pixels on the fast tier
// (j.sums set), channels on the reference one.
func lrnPart(j *splitJob, smp, u0, u1 int) {
	hw := j.h * j.w
	o, in := j.o[smp*j.c*hw:(smp+1)*j.c*hw], j.in[smp*j.c*hw:(smp+1)*j.c*hw]
	if j.sums != nil {
		lrnCoreFast(o, in, j.c, hw, j.lrn, j.sums[smp*hw:(smp+1)*hw], u0, u1)
	} else {
		lrnCore(o, in, j.c, hw, j.lrn, u0, u1)
	}
}

// lrnCore normalizes output channels [c0, c1) of one c-channel CHW sample of
// hw-pixel planes given as flat slices.  The channel loop is outermost so
// output writes stream contiguously; the per-element arithmetic (fresh
// float64 window sum, math.Pow quotient unless lrnRoots certifies its bits)
// is the reference loop's, so results are bit-identical for any channel split.
func lrnCore(o, in []float32, c, hw int, p LRNParams, c0, c1 int) {
	half := p.LocalSize / 2
	scale := p.Alpha / float64(p.LocalSize)
	for ch := c0; ch < c1; ch++ {
		lo, hi := max(ch-half, 0)-ch, min(ch+half, c-1)-ch
		for i := ch * hw; i < (ch+1)*hw; i++ {
			sum := 0.0
			for j := i + lo*hw; j <= i+hi*hw; j += hw {
				v := float64(in[j])
				sum += float64(v * v)
			}
			base := p.K + float64(scale*sum)
			if r, ok := lrnRoots(in[i], base, p.Beta); ok {
				o[i] = r
			} else {
				o[i] = float32(float64(in[i]) / math.Pow(base, p.Beta))
			}
		}
	}
}

// lrnRoots returns float32(float64(v) / math.Pow(base, beta)) computed as
// v / sqrt(base*sqrt(base)), and whether it is certain to be those bits.  It
// declines unless beta is 3/4 and base is in [2^-600, 2^600] (NaN fails, and
// nothing leaves float64's normal range), and when a float32 rounding
// boundary lies within 2^-36 (2^17 float64 ulps) of the quotient q.  Both q
// and the math.Pow quotient are within 2^-45 of v/base^0.75 (math.Pow's Log
// of such a base is off by at most an ulp of 416) and rounding is monotone,
// so when q(1±2^-36) round alike, math.Pow's quotient rounds with them, on
// every GOARCH.  A ±0 centre is its own quotient: after ReLU about half of
// AlexNet's LRN inputs are zeros.
func lrnRoots(v float32, base, beta float64) (float32, bool) {
	if beta != 0.75 || !(base >= 0x1p-600 && base <= 0x1p600) {
		return 0, false
	}
	if v == 0 {
		return v, true
	}
	q := float64(v) / math.Sqrt(base*math.Sqrt(base))
	r := float32(q)
	return r, float32(q*(1-0x1p-36)) == r && float32(q*(1+0x1p-36)) == r
}

// lrnCoreFast is lrnCore for the fast tier with beta = 3/4, over pixels
// [p0, p1) of every channel of one CHW sample of hw-pixel planes; sums is
// the sample's hw running sums.  Two departures from the reference kernel,
// both inside the fast tier's tolerance contract (which is the only tier
// that ever runs this):
//
//   - The per-pixel channel-window sum rolls instead of being recomputed:
//     sums holds one float64 running sum per pixel and each channel step
//     adds the square entering the window and subtracts the one leaving it.
//     Squares of float32 values are exact in float64 (24-bit mantissas), so
//     the only reassociation error is the additions' rounding drift.
//   - The denominator d^0.75 = sqrt(d*sqrt(d)) uses two hardware square
//     roots instead of math.Pow (tensor.LRNStep75: its scalar loop is the
//     definition of a channel step, its vector rung writes the same bits).
//
// A pixel's rolling sum never leaves its pixel, so the bits do not depend
// on the pixel split.
func lrnCoreFast(o, in []float32, c, hw int, p LRNParams, sums []float64, p0, p1 int) {
	half := p.LocalSize / 2
	scale := p.Alpha / float64(p.LocalSize)
	sums = sums[p0:p1]
	plane := func(t []float32, ch int) []float32 { return t[ch*hw+p0 : ch*hw+p1] }
	clear(sums)
	for cc := 0; cc <= half && cc < c; cc++ {
		for i, v := range plane(in, cc) {
			sums[i] += float64(float64(v) * float64(v))
		}
	}
	for ch := 0; ch < c; ch++ {
		var add, sub []float32
		if a := ch + half + 1; a < c {
			add = plane(in, a)
		}
		if s := ch - half; s >= 0 {
			sub = plane(in, s)
		}
		tensor.LRNStep75(plane(o, ch), plane(in, ch), sums, add, sub, p.K, scale)
	}
}

// BatchNormParams carries the per-channel statistics of an inference-time
// batch normalization layer (ResNet uses BatchNorm followed by Scale).
type BatchNormParams struct {
	Mean     *tensor.Tensor // length C
	Variance *tensor.Tensor // length C
	Epsilon  float64
}

// batchNormPart normalizes channels [c0, c1) of sample smp.
func batchNormPart(j *splitJob, smp, c0, c1 int) {
	eps := j.bn.Epsilon
	if eps == 0 {
		eps = 1e-5
	}
	hw := j.h * j.w
	for ch := c0; ch < c1; ch++ {
		mean := j.bn.Mean.Data()[ch]
		inv := float32(1.0 / math.Sqrt(float64(j.bn.Variance.Data()[ch])+eps))
		at := (smp*j.c + ch) * hw
		for i, v := range j.in[at : at+hw] {
			j.o[at+i] = (v - mean) * inv
		}
	}
}

// scalePart applies the per-channel affine transform to channels [c0, c1)
// of sample smp.
func scalePart(j *splitJob, smp, c0, c1 int) {
	hw := j.h * j.w
	for ch := c0; ch < c1; ch++ {
		g := j.gamma.Data()[ch]
		b := float32(0)
		if j.beta != nil {
			b = j.beta.Data()[ch]
		}
		at := (smp*j.c + ch) * hw
		for i, v := range j.in[at : at+hw] {
			j.o[at+i] = float32(v*g) + b
		}
	}
}
