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

// checkLRNArgs validates an LRN call.
func checkLRNArgs(input *tensor.Tensor, p LRNParams) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if input == nil || input.Rank() != 3 {
		return fmt.Errorf("nn: lrn input must be CHW, got shape %v", shapeOf(input))
	}
	return nil
}

// LRN applies local response normalization across channels of a CHW input:
// out[c] = in[c] / (k + alpha/n * sum_{c'} in[c']^2)^beta.
func LRN(input *tensor.Tensor, p LRNParams) (*tensor.Tensor, error) {
	return (*Scratch)(nil).LRN(input, p)
}

// lrnInto runs the LRN kernel, fully overwriting dst.  The channel loop is
// outermost so output writes stream contiguously; the per-element arithmetic
// (fresh float64 window sum, math.Pow denominator) is unchanged from the
// reference loop order, so results are bit-identical.
func lrnInto(dst, input *tensor.Tensor, p LRNParams) {
	lrnCore(dst.Data(), input.Data(), input.Dim(0), input.Dim(1), input.Dim(2), p)
}

// lrnCore normalizes one CHW sample given as flat slices.
func lrnCore(o, in []float32, c, h, w int, p LRNParams) {
	half := p.LocalSize / 2
	scale := p.Alpha / float64(p.LocalSize)
	for ch := 0; ch < c; ch++ {
		lo := ch - half
		if lo < 0 {
			lo = 0
		}
		hi := ch + half
		if hi >= c {
			hi = c - 1
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				sum := 0.0
				for cc := lo; cc <= hi; cc++ {
					v := float64(in[(cc*h+y)*w+x])
					sum += v * v
				}
				denom := math.Pow(p.K+scale*sum, p.Beta)
				o[(ch*h+y)*w+x] = float32(float64(in[(ch*h+y)*w+x]) / denom)
			}
		}
	}
}

// lrnFastEligible reports whether the fast-numerics LRN variant applies:
// the tier is non-reference and beta is exactly 3/4, the AlexNet/GoogLeNet
// exponent, for which x^-beta has a closed form in hardware square roots.
func (s *Scratch) lrnFastEligible(p LRNParams) bool {
	return s.Numerics() != NumericsReference && p.Beta == 0.75
}

// lrnSums returns the rolling window-sum buffer of the fast LRN kernel
// (one float64 per pixel, allocated once and reused).
func (s *Scratch) lrnSums(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	if cap(s.f64buf) < n {
		s.f64buf = make([]float64, n)
	}
	return s.f64buf[:n]
}

// lrnCoreFast is lrnCore for the fast tier with beta = 3/4.  Two departures
// from the reference kernel, both inside the fast tier's tolerance
// contract (which is the only tier that ever runs this):
//
//   - The per-pixel channel-window sum rolls instead of being recomputed:
//     sums holds one float64 running sum per pixel and each channel step
//     adds the square entering the window and subtracts the one leaving it.
//     Squares of float32 values are exact in float64 (24-bit mantissas), so
//     the only reassociation error is the additions' rounding drift.
//   - The denominator d^0.75 = sqrt(d*sqrt(d)) uses two hardware square
//     roots instead of math.Pow (tensor.LRNStep75: its scalar loop is the
//     definition of a channel step, its vector rung writes the same bits).
func lrnCoreFast(o, in []float32, c, h, w int, p LRNParams, sums []float64) {
	half := p.LocalSize / 2
	scale := p.Alpha / float64(p.LocalSize)
	hw := h * w
	clear(sums)
	for cc := 0; cc <= half && cc < c; cc++ {
		for i, v := range in[cc*hw : (cc+1)*hw] {
			sums[i] += float64(v) * float64(v)
		}
	}
	for ch := 0; ch < c; ch++ {
		var add, sub []float32
		if a := ch + half + 1; a < c {
			add = in[a*hw : (a+1)*hw]
		}
		if s := ch - half; s >= 0 {
			sub = in[s*hw : (s+1)*hw]
		}
		tensor.LRNStep75(o[ch*hw:(ch+1)*hw], in[ch*hw:(ch+1)*hw], sums, add, sub, p.K, scale)
	}
}

// BatchNormParams carries the per-channel statistics of an inference-time
// batch normalization layer (ResNet uses BatchNorm followed by Scale).
type BatchNormParams struct {
	Mean     *tensor.Tensor // length C
	Variance *tensor.Tensor // length C
	Epsilon  float64
}

// checkBatchNormArgs validates a BatchNorm call.
func checkBatchNormArgs(input *tensor.Tensor, p BatchNormParams) error {
	if input == nil || input.Rank() != 3 {
		return fmt.Errorf("nn: batchnorm input must be CHW, got shape %v", shapeOf(input))
	}
	c := input.Dim(0)
	if p.Mean == nil || p.Variance == nil {
		return fmt.Errorf("nn: batchnorm requires mean and variance")
	}
	if p.Mean.Len() != c || p.Variance.Len() != c {
		return fmt.Errorf("nn: batchnorm stats length %d/%d, want %d", p.Mean.Len(), p.Variance.Len(), c)
	}
	return nil
}

// BatchNorm normalizes each channel of a CHW input with the stored mean and
// variance: out = (in - mean) / sqrt(var + eps).
func BatchNorm(input *tensor.Tensor, p BatchNormParams) (*tensor.Tensor, error) {
	return (*Scratch)(nil).BatchNorm(input, p)
}

// batchNormInto runs the batch normalization kernel, fully overwriting dst.
func batchNormInto(dst, input *tensor.Tensor, p BatchNormParams) {
	batchNormCore(dst.Data(), input.Data(), input.Dim(0), input.Dim(1), input.Dim(2), p)
}

// batchNormCore normalizes one CHW sample given as flat slices.
func batchNormCore(o, in []float32, c, h, w int, p BatchNormParams) {
	eps := p.Epsilon
	if eps == 0 {
		eps = 1e-5
	}
	for ch := 0; ch < c; ch++ {
		mean := p.Mean.Data()[ch]
		inv := float32(1.0 / math.Sqrt(float64(p.Variance.Data()[ch])+eps))
		for i := 0; i < h*w; i++ {
			o[ch*h*w+i] = (in[ch*h*w+i] - mean) * inv
		}
	}
}

// checkScaleArgs validates a Scale call.
func checkScaleArgs(input, gamma, beta *tensor.Tensor) error {
	if input == nil || input.Rank() != 3 {
		return fmt.Errorf("nn: scale input must be CHW, got shape %v", shapeOf(input))
	}
	c := input.Dim(0)
	if gamma == nil || gamma.Len() != c {
		return fmt.Errorf("nn: scale expects %d gammas", c)
	}
	if beta != nil && beta.Len() != c {
		return fmt.Errorf("nn: scale expects %d betas, got %d", c, beta.Len())
	}
	return nil
}

// Scale applies the per-channel affine transform out = in*gamma + beta that
// Caffe models pair with BatchNorm.
func Scale(input *tensor.Tensor, gamma, beta *tensor.Tensor) (*tensor.Tensor, error) {
	return (*Scratch)(nil).Scale(input, gamma, beta)
}

// scaleInto runs the per-channel affine kernel, fully overwriting dst.
func scaleInto(dst, input, gamma, beta *tensor.Tensor) {
	scaleCore(dst.Data(), input.Data(), input.Dim(0), input.Dim(1), input.Dim(2), gamma, beta)
}

// scaleCore applies the per-channel affine transform to one CHW sample given
// as flat slices.
func scaleCore(o, in []float32, c, h, w int, gamma, beta *tensor.Tensor) {
	for ch := 0; ch < c; ch++ {
		g := gamma.Data()[ch]
		b := float32(0)
		if beta != nil {
			b = beta.Data()[ch]
		}
		for i := 0; i < h*w; i++ {
			o[ch*h*w+i] = in[ch*h*w+i]*g + b
		}
	}
}
