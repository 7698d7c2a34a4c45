package nn

import (
	"fmt"
	"math"

	"tango/internal/tensor"
)

// PoolKind selects the pooling reduction.
type PoolKind uint8

// Pooling reductions used by the benchmark networks.
const (
	MaxPool PoolKind = iota
	AvgPool
)

// String returns the pooling kind name.
func (k PoolKind) String() string {
	if k == MaxPool {
		return "max"
	}
	return "avg"
}

// PoolParams describes a spatial pooling layer.
type PoolParams struct {
	Kind    PoolKind
	KernelH int
	KernelW int
	StrideH int
	StrideW int
	PadH    int
	PadW    int
	// CeilMode selects Caffe-style ceiling output size computation, which
	// AlexNet and SqueezeNet reference models use (e.g. 55 -> 27 with k=3,s=2).
	CeilMode bool
}

// Validate checks the parameters for internal consistency.
func (p PoolParams) Validate() error {
	if p.KernelH <= 0 || p.KernelW <= 0 {
		return fmt.Errorf("nn: pool kernel must be positive, got %dx%d", p.KernelH, p.KernelW)
	}
	if p.StrideH <= 0 || p.StrideW <= 0 {
		return fmt.Errorf("nn: pool stride must be positive, got %dx%d", p.StrideH, p.StrideW)
	}
	if p.PadH < 0 || p.PadW < 0 {
		return fmt.Errorf("nn: pool padding must be non-negative, got %dx%d", p.PadH, p.PadW)
	}
	return nil
}

// OutputDims returns the output spatial size for an inH x inW input.
func (p PoolParams) OutputDims(inH, inW int) (outH, outW int) {
	num := func(in, pad, k, s int) int {
		if p.CeilMode {
			return int(math.Ceil(float64(in+2*pad-k)/float64(s))) + 1
		}
		return (in+2*pad-k)/s + 1
	}
	return num(inH, p.PadH, p.KernelH, p.StrideH), num(inW, p.PadW, p.KernelW, p.StrideW)
}

// Pool2D applies max or average pooling to a CHW input (or an NCHW batch).
func Pool2D(input *tensor.Tensor, p PoolParams) (*tensor.Tensor, error) {
	return NewScratch().Pool2D(input, p)
}

// tapSpan returns the outputs [lo, hi) of a row of out windows, stride
// columns apart, whose tap k, at input column ox*stride - pad + k, lies
// inside [0, in): ceil((pad-k)/stride) up to floor((in-1+pad-k)/stride).
func tapSpan(k, pad, stride, in, out int) (lo, hi int) {
	lo = min(max(pad-k+stride-1, 0)/stride, out)
	hi = min(max(in-1+pad-k+stride, 0)/stride, out)
	return lo, max(hi, lo)
}

// pool2DCore pools one CHW sample given as flat slices; Scratch.Pool2D
// calls it once per image of an NCHW batch.  It works an output row at a
// time: the row is seeded (-Inf or 0), then each (ky, kx) tap that is inside
// the image is applied to the whole run of outputs it is in bounds for —
// one tensor.MaxStride or AddStride call, a vector kernel at the suite's
// stride of 2 — so every output takes its taps from the same seed in the
// same (ky, kx) order as a loop over outputs would.  Outputs no tap reaches
// (padding wider than the kernel, ceil-mode overhang) are 0; in a row they
// are the ones outside [first, last), from the rightmost tap's first output
// to the leftmost tap's last.
func pool2DCore(o, in []float32, c, inH, inW, outH, outW int, p PoolParams) {
	seed, tap := float32(0), tensor.AddStride
	if p.Kind == MaxPool {
		seed, tap = float32(math.Inf(-1)), tensor.MaxStride
	}
	first, _ := tapSpan(p.KernelW-1, p.PadW, p.StrideW, inW, outW)
	_, last := tapSpan(0, p.PadW, p.StrideW, inW, outW)
	for ch := 0; ch < c; ch++ {
		plane := in[ch*inH*inW : (ch+1)*inH*inW]
		for oy := 0; oy < outH; oy++ {
			row := o[(ch*outH+oy)*outW:][:outW]
			clear(row)
			iy0 := oy*p.StrideH - p.PadH
			rows := min(iy0+p.KernelH, inH) - max(iy0, 0)
			if rows <= 0 {
				continue
			}
			for i := first; i < last; i++ {
				row[i] = seed
			}
			for iy := max(iy0, 0); iy < min(iy0+p.KernelH, inH); iy++ {
				for kx := 0; kx < p.KernelW; kx++ {
					if lo, hi := tapSpan(kx, p.PadW, p.StrideW, inW, outW); lo < hi {
						tap(row[lo:hi], plane[iy*inW+lo*p.StrideW-p.PadW+kx:], p.StrideW)
					}
				}
			}
			if p.Kind == AvgPool {
				for ox := first; ox < last; ox++ {
					ix0 := ox*p.StrideW - p.PadW
					row[ox] /= float32(rows * (min(ix0+p.KernelW, inW) - max(ix0, 0)))
				}
			}
		}
	}
}

// GlobalAvgPool reduces each channel of a CHW input to its spatial mean,
// returning a rank-1 tensor of length C.  SqueezeNet's final layer uses it.
func GlobalAvgPool(input *tensor.Tensor) (*tensor.Tensor, error) {
	return NewScratch().GlobalAvgPool(input)
}

// globalAvgPoolCore reduces one CHW sample given as flat slices.
func globalAvgPoolCore(o, in []float32, c, h, w int) {
	area := float32(h * w)
	for ch := 0; ch < c; ch++ {
		sum := float32(0)
		for i := 0; i < h*w; i++ {
			sum += in[ch*h*w+i]
		}
		o[ch] = sum / area
	}
}

// shapeOf formats a possibly-nil tensor's shape for error messages.
func shapeOf(t *tensor.Tensor) []int {
	if t == nil {
		return nil
	}
	return t.Shape()
}
