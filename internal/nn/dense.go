package nn

import (
	"fmt"
	"math"

	"tango/internal/tensor"
)

// checkFullyConnectedArgs validates a fully-connected call and returns the
// sample count and the per-sample input feature count.
func checkFullyConnectedArgs(input, weights, bias *tensor.Tensor, outFeatures int) (n, inFeatures int, err error) {
	if outFeatures <= 0 {
		return 0, 0, fmt.Errorf("nn: fc output features must be positive, got %d", outFeatures)
	}
	if input == nil || input.Len() == 0 {
		return 0, 0, fmt.Errorf("nn: fc: %w: nil or empty input", tensor.ErrShape)
	}
	if weights == nil {
		return 0, 0, fmt.Errorf("nn: fc: %w: nil weights", tensor.ErrShape)
	}
	n = samples(input)
	inFeatures = input.Len() / n
	if weights.Len() != outFeatures*inFeatures {
		return 0, 0, fmt.Errorf("nn: fc: %w: expects %d weights (%dx%d), got %d",
			tensor.ErrShape, outFeatures*inFeatures, outFeatures, inFeatures, weights.Len())
	}
	if bias != nil && bias.Len() != outFeatures {
		return 0, 0, fmt.Errorf("nn: fc expects %d biases, got %d", outFeatures, bias.Len())
	}
	return n, inFeatures, nil
}

// FullyConnected computes out = W*x + b where x is the flattened input,
// W has shape (outFeatures x inFeatures) and b has length outFeatures.
// It returns a rank-1 tensor of length outFeatures (an (N, outFeatures) one
// for a rank-2 or rank-4 batch).
//
// The product runs on the register-tiled kernel in package tensor; each
// output element accumulates its dot product left to right starting from its
// bias, so results are bit-identical to the scalar reference loop.
func FullyConnected(input, weights, bias *tensor.Tensor, outFeatures int) (*tensor.Tensor, error) {
	return NewScratch().FullyConnectedPacked(input, weights, bias, outFeatures, nil)
}

// checkMatVecArgs validates a MatVec call.
func checkMatVecArgs(w, x *tensor.Tensor, rows, cols int) error {
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("nn: matvec dims must be positive, got %dx%d", rows, cols)
	}
	if w == nil || x == nil {
		return fmt.Errorf("nn: matvec: %w: nil matrix or vector", tensor.ErrShape)
	}
	if w.Len() != rows*cols {
		return fmt.Errorf("nn: matvec matrix needs %d elements, got %d", rows*cols, w.Len())
	}
	if x.Len() != cols {
		return fmt.Errorf("nn: matvec vector needs %d elements, got %d", cols, x.Len())
	}
	return nil
}

// MatVec computes y = W*x for a (rows x cols) matrix W, returning a rank-1
// tensor of length rows.  It is the core primitive of the RNN gate equations
// and deliberately remains a scalar loop: together with Conv2DDirect it forms
// the independent reference the blocked engine kernels are validated against.
func MatVec(w *tensor.Tensor, x *tensor.Tensor, rows, cols int) (*tensor.Tensor, error) {
	if err := checkMatVecArgs(w, x, rows, cols); err != nil {
		return nil, err
	}
	out := tensor.New(rows)
	scalarMatVec(out.Data(), w.Data(), x.Data(), nil, rows, cols)
	return out, nil
}

// scalarMatVec is the reference mat-vec: one scalar accumulator per row,
// columns ascending.  bias may be nil.
func scalarMatVec(dst, w, x, bias []float32, rows, cols int) {
	for r := 0; r < rows; r++ {
		var sum float32
		if bias != nil {
			sum = bias[r]
		}
		row := w[r*cols : (r+1)*cols]
		for c, xv := range x {
			sum += row[c] * xv
		}
		dst[r] = sum
	}
}

// Softmax returns the normalized exponential of the input (of each sample
// of a rank-2 or rank-4 batch), computed with the usual max-subtraction for
// numerical stability.  It returns an error for a nil or empty input.
func Softmax(input *tensor.Tensor) (*tensor.Tensor, error) {
	return NewScratch().Softmax(input)
}

// softmaxCore computes the softmax of in into o; both have equal length.
func softmaxCore(o, in []float32) {
	max := float32(math.Inf(-1))
	for _, v := range in {
		if v > max {
			max = v
		}
	}
	sum := float64(0)
	for i, v := range in {
		e := math.Exp(float64(v - max))
		o[i] = float32(e)
		sum += e
	}
	if sum == 0 {
		return
	}
	inv := float32(1.0 / sum)
	for i := range o {
		o[i] *= inv
	}
}
