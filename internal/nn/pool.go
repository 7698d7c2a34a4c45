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

// tapSpan returns the outputs [lo, hi) of a row of out windows, stride
// columns apart, whose tap k, at input column ox*stride - pad + k, lies
// inside [0, in): ceil((pad-k)/stride) up to floor((in-1+pad-k)/stride).
func tapSpan(k, pad, stride, in, out int) (lo, hi int) {
	lo = min(max(pad-k+stride-1, 0)/stride, out)
	hi = min(max(in-1+pad-k+stride, 0)/stride, out)
	return lo, max(hi, lo)
}

// poolPart pools channels [c0, c1) of sample smp.
func poolPart(j *splitJob, smp, c0, c1 int) {
	at := smp*j.c + c0
	pool2DCore(j.o[at*j.outH*j.outW:], j.in[at*j.h*j.w:], c1-c0, j.h, j.w, j.outH, j.outW, j.pool)
}

// pool2DCore pools c channels of CHW data given as flat slices;
// Scratch.Pool2D calls it on (sample, channel) ranges of an NCHW batch.  Each
// output row takes one tensor.PoolWindow call, a vector kernel at the suite's
// stride of 2, for its run of outputs whose window lies inside the image
// columns, and one call per padded or ceil-mode edge output, each over the
// window's in-image rows and columns: so every output takes its in-image
// taps from the seed (-Inf or 0) in (ky, kx) order.  Outputs no tap reaches
// (padding wider than the kernel, ceil-mode overhang) are 0; in a row they
// are the ones outside [first, last), from the rightmost tap's first output
// to the leftmost tap's last.
func pool2DCore(o, in []float32, c, inH, inW, outH, outW int, p PoolParams) {
	maxPool, seed := p.Kind == MaxPool, float32(0)
	if maxPool {
		seed = float32(math.Inf(-1))
	}
	first, w1 := tapSpan(p.KernelW-1, p.PadW, p.StrideW, inW, outW)
	w0, last := tapSpan(0, p.PadW, p.StrideW, inW, outW) // [w0, w1): whole windows
	for ch := 0; ch < c; ch++ {
		plane := in[ch*inH*inW : (ch+1)*inH*inW]
		for oy := 0; oy < outH; oy++ {
			row := o[(ch*outH+oy)*outW:][:outW]
			clear(row)
			iy0 := oy*p.StrideH - p.PadH
			y0, y1 := max(iy0, 0), min(iy0+p.KernelH, inH)
			for ox, n := first, 1; ox < last && y0 < y1; ox += n {
				ix0 := ox*p.StrideW - p.PadW
				x0, x1 := max(ix0, 0), min(ix0+p.KernelW, inW)
				if n = 1; ox == w0 && w0 < w1 {
					n = w1 - w0
				}
				run := row[ox : ox+n]
				for i := range run {
					run[i] = seed
				}
				tensor.PoolWindow(run, plane[y0*inW+x0:], inW, p.StrideW, y1-y0, x1-x0, maxPool)
				for i := 0; i < n && !maxPool; i++ {
					run[i] /= float32((y1 - y0) * (x1 - x0))
				}
			}
		}
	}
}

// globalAvgPoolPart reduces channels [c0, c1) of sample smp.
func globalAvgPoolPart(j *splitJob, smp, c0, c1 int) {
	at := smp*j.c + c0
	globalAvgPoolCore(j.o[at:], j.in[at*j.h*j.w:], c1-c0, j.h, j.w)
}

// globalAvgPoolCore reduces c channels of CHW data given as flat slices.
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
