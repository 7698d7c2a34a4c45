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

// checkPoolArgs validates a pooling call and returns the geometry.
func checkPoolArgs(input *tensor.Tensor, p PoolParams) (c, inH, inW, outH, outW int, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, 0, 0, 0, err
	}
	if input == nil {
		return 0, 0, 0, 0, 0, fmt.Errorf("nn: pool: %w: nil input", tensor.ErrShape)
	}
	if input.Rank() != 3 {
		return 0, 0, 0, 0, 0, fmt.Errorf("nn: pool input must be CHW, got shape %v", input.Shape())
	}
	c, inH, inW = input.Dim(0), input.Dim(1), input.Dim(2)
	outH, outW = p.OutputDims(inH, inW)
	if outH <= 0 || outW <= 0 {
		return 0, 0, 0, 0, 0, fmt.Errorf("nn: pool output dims %dx%d are not positive for input %dx%d", outH, outW, inH, inW)
	}
	return c, inH, inW, outH, outW, nil
}

// Pool2D applies max or average pooling to a CHW input.
func Pool2D(input *tensor.Tensor, p PoolParams) (*tensor.Tensor, error) {
	return (*Scratch)(nil).Pool2D(input, p)
}

// pool2DInto runs the pooling kernel, fully overwriting dst.  Arguments must
// be pre-validated.
func pool2DInto(dst, input *tensor.Tensor, p PoolParams) {
	pool2DCore(dst.Data(), input.Data(), input.Dim(0), input.Dim(1), input.Dim(2),
		dst.Dim(1), dst.Dim(2), p)
}

// pool2DCore pools one CHW sample given as flat slices; the batched engine
// calls it once per image of an NCHW batch.
func pool2DCore(o, in []float32, c, inH, inW, outH, outW int, p PoolParams) {
	negInf := float32(math.Inf(-1))
	for ch := 0; ch < c; ch++ {
		plane := in[ch*inH*inW : (ch+1)*inH*inW]
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*p.StrideH - p.PadH
			rowsInside := p.Kind == MaxPool && iy0 >= 0 && iy0+p.KernelH <= inH
			for ox := 0; ox < outW; ox++ {
				if ix0 := ox*p.StrideW - p.PadW; rowsInside && ix0 >= 0 && ix0+p.KernelW <= inW {
					// Max window wholly inside the image: the general loop's
					// taps in its (ky, kx) order from its -Inf seed, without
					// the per-tap bounds and kind tests.
					acc := negInf
					for ky := 0; ky < p.KernelH; ky++ {
						for _, v := range plane[(iy0+ky)*inW+ix0:][:p.KernelW] {
							if v > acc {
								acc = v
							}
						}
					}
					o[(ch*outH+oy)*outW+ox] = acc
					continue
				}
				var acc float32
				if p.Kind == MaxPool {
					acc = negInf
				}
				count := 0
				for ky := 0; ky < p.KernelH; ky++ {
					iy := oy*p.StrideH - p.PadH + ky
					if iy < 0 || iy >= inH {
						continue
					}
					for kx := 0; kx < p.KernelW; kx++ {
						ix := ox*p.StrideW - p.PadW + kx
						if ix < 0 || ix >= inW {
							continue
						}
						v := in[(ch*inH+iy)*inW+ix]
						if p.Kind == MaxPool {
							if v > acc {
								acc = v
							}
						} else {
							acc += v
						}
						count++
					}
				}
				if p.Kind == AvgPool {
					if count > 0 {
						acc /= float32(count)
					}
				} else if count == 0 {
					acc = 0
				}
				o[(ch*outH+oy)*outW+ox] = acc
			}
		}
	}
}

// checkGlobalPoolArgs validates a global pooling input.
func checkGlobalPoolArgs(input *tensor.Tensor) error {
	if input == nil || input.Rank() != 3 {
		return fmt.Errorf("nn: global pool input must be CHW, got %v", shapeOf(input))
	}
	return nil
}

// GlobalAvgPool reduces each channel of a CHW input to its spatial mean,
// returning a rank-1 tensor of length C.  SqueezeNet's final layer uses it.
func GlobalAvgPool(input *tensor.Tensor) (*tensor.Tensor, error) {
	return (*Scratch)(nil).GlobalAvgPool(input)
}

// globalAvgPoolInto runs the global average pooling kernel, fully
// overwriting dst.
func globalAvgPoolInto(dst, input *tensor.Tensor) {
	globalAvgPoolCore(dst.Data(), input.Data(), input.Dim(0), input.Dim(1), input.Dim(2))
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
