// Package nn implements the fundamental mathematical layer computations of
// the Tango benchmark suite: convolution, pooling, fully-connected, local
// response normalization, batch normalization, scale, element-wise addition,
// activation functions, softmax, channel concatenation (what SqueezeNet's
// fire modules are joined with), and the LSTM and GRU recurrent cells.
//
// Each function corresponds to one CUDA/OpenCL kernel in the original
// benchmark suite.  Feature maps use CHW layout (channels, height, width)
// for one sample, matching the single-image inference the paper evaluates;
// a leading batch dimension (NCHW, or (N, F) for vectors) makes a batch.
// Every layer op (the Scratch methods in engine.go) accepts either kind and
// returns the same kind.
//
// This file holds the convolution's parameters and validation and the
// direct loop nest (Conv2DDirect) that the one panel core of every tier
// (fastfused.go) is held to bit for bit on the reference tier.
package nn

import (
	"fmt"

	"tango/internal/tensor"
)

// ConvParams describes a 2-D convolution layer.
type ConvParams struct {
	// InChannels and OutChannels are the feature-map depths.
	InChannels  int
	OutChannels int
	// KernelH and KernelW are the filter sizes.
	KernelH int
	KernelW int
	// StrideH and StrideW are the filter step sizes.
	StrideH int
	StrideW int
	// PadH and PadW are the zero-padding amounts on each side.
	PadH int
	PadW int
	// Groups splits input and output channels into independent groups
	// (AlexNet-style grouped convolution).  Zero means one group.
	Groups int
}

// Validate checks the parameters for internal consistency.
func (p ConvParams) Validate() error {
	if p.InChannels <= 0 || p.OutChannels <= 0 {
		return fmt.Errorf("nn: conv channels must be positive, got in=%d out=%d", p.InChannels, p.OutChannels)
	}
	if p.KernelH <= 0 || p.KernelW <= 0 {
		return fmt.Errorf("nn: conv kernel must be positive, got %dx%d", p.KernelH, p.KernelW)
	}
	if p.StrideH <= 0 || p.StrideW <= 0 {
		return fmt.Errorf("nn: conv stride must be positive, got %dx%d", p.StrideH, p.StrideW)
	}
	if p.PadH < 0 || p.PadW < 0 {
		return fmt.Errorf("nn: conv padding must be non-negative, got %dx%d", p.PadH, p.PadW)
	}
	g := p.Groups
	if g == 0 {
		g = 1
	}
	if p.InChannels%g != 0 || p.OutChannels%g != 0 {
		return fmt.Errorf("nn: conv groups %d must divide channels in=%d out=%d", g, p.InChannels, p.OutChannels)
	}
	return nil
}

// groups returns the effective group count.
func (p ConvParams) groups() int {
	if p.Groups <= 0 {
		return 1
	}
	return p.Groups
}

// OutputDims returns the output height and width for an input of inH x inW.
func (p ConvParams) OutputDims(inH, inW int) (outH, outW int) {
	outH = (inH+2*p.PadH-p.KernelH)/p.StrideH + 1
	outW = (inW+2*p.PadW-p.KernelW)/p.StrideW + 1
	return outH, outW
}

// WeightCount returns the number of filter weights.
func (p ConvParams) WeightCount() int {
	return p.OutChannels * (p.InChannels / p.groups()) * p.KernelH * p.KernelW
}

// MACs returns the number of multiply-accumulate operations for an input of
// inH x inW, the dominant cost the paper's Observation 1 attributes to
// convolution layers.
func (p ConvParams) MACs(inH, inW int) int64 {
	outH, outW := p.OutputDims(inH, inW)
	perOutput := int64(p.InChannels/p.groups()) * int64(p.KernelH) * int64(p.KernelW)
	return int64(p.OutChannels) * int64(outH) * int64(outW) * perOutput
}

// checkConvArgs validates a convolution over one CHW sample or an NCHW batch
// and returns the sample count and the input and output geometry.
func checkConvArgs(input, weights, bias *tensor.Tensor, p ConvParams) (nImg, inH, inW, outH, outW int, err error) {
	fail := func(err error) (int, int, int, int, int, error) { return 0, 0, 0, 0, 0, err }
	if err := p.Validate(); err != nil {
		return fail(err)
	}
	if weights == nil {
		return fail(fmt.Errorf("nn: conv: %w: nil weights", tensor.ErrShape))
	}
	nImg, inC, inH, inW, err := featureMap("conv", input)
	if err != nil {
		return fail(err)
	}
	if inC != p.InChannels {
		return fail(fmt.Errorf("nn: conv: %w: expects %d input channels, got %d", tensor.ErrShape, p.InChannels, inC))
	}
	if weights.Len() != p.WeightCount() {
		return fail(fmt.Errorf("nn: conv: %w: expects %d weights, got %d", tensor.ErrShape, p.WeightCount(), weights.Len()))
	}
	if bias != nil && bias.Len() != p.OutChannels {
		return fail(fmt.Errorf("nn: conv: %w: expects %d biases, got %d", tensor.ErrShape, p.OutChannels, bias.Len()))
	}
	outH, outW = p.OutputDims(inH, inW)
	if outH <= 0 || outW <= 0 {
		return fail(fmt.Errorf("nn: conv output dims %dx%d are not positive for input %dx%d", outH, outW, inH, inW))
	}
	return nImg, inH, inW, outH, outW, nil
}

// Conv2DDirect is the reference implementation of the convolution layer
// (Scratch.Conv2DPacked), returning a new tensor: a direct 7-deep
// loop nest that accumulates each output element with a scalar sum over
// (channel, ky, kx) in ascending order.  The panel core is validated
// bit-exactly against it.
func Conv2DDirect(input *tensor.Tensor, weights, bias *tensor.Tensor, p ConvParams) (*tensor.Tensor, error) {
	s := NewScratch()
	s.SetDirect(true)
	return s.Conv2DPacked(input, weights, bias, p, nil)
}

// conv2DDirectCore runs the direct loop nest over one CHW sample, fully
// overwriting o.  Arguments must be pre-validated.
func conv2DDirectCore(o, in, w, bias []float32, p ConvParams, inH, inW, outH, outW int) {
	groups := p.groups()
	inCPerGroup := p.InChannels / groups
	outCPerGroup := p.OutChannels / groups

	for oc := 0; oc < p.OutChannels; oc++ {
		group := oc / outCPerGroup
		icBase := group * inCPerGroup
		b := float32(0)
		if bias != nil {
			b = bias[oc]
		}
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				sum := b
				for ic := 0; ic < inCPerGroup; ic++ {
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
							iv := in[((icBase+ic)*inH+iy)*inW+ix]
							wv := w[((oc*inCPerGroup+ic)*p.KernelH+ky)*p.KernelW+kx]
							sum += float32(iv * wv)
						}
					}
				}
				o[(oc*outH+oy)*outW+ox] = sum
			}
		}
	}
}
