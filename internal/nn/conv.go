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

// Conv2D performs a 2-D convolution of input (CHW, or an NCHW batch) with
// weights (outC x inC/groups x kh x kw) and a per-output-channel bias.  It
// returns a new tensor of the input's kind.  One output element corresponds
// to one simulated GPU thread, mirroring the paper's one-thread-per-neuron
// mapping.
//
// The computation is lowered to im2col plus the blocked GEMM kernel in
// package tensor; results are bit-identical to the direct reference loop in
// Conv2DDirect (see the summation-order contract on tensor.GemmNN).  Use
// Scratch.Conv2DPacked to amortize the im2col and output buffers across runs.
func Conv2D(input *tensor.Tensor, weights, bias *tensor.Tensor, p ConvParams) (*tensor.Tensor, error) {
	return NewScratch().Conv2DPacked(input, weights, bias, p, nil)
}

// Conv2DDirect is the reference implementation of Conv2D: a direct 7-deep
// loop nest that accumulates each output element with a scalar sum over
// (channel, ky, kx) in ascending order.  The GEMM path is validated
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
							sum += iv * wv
						}
					}
				}
				o[(oc*outH+oy)*outW+ox] = sum
			}
		}
	}
}

// convStaged is the reference-tier convolution core of Conv2DPacked: per
// channel group, the patches of all nImg samples are
// staged l-major (k x nImg*outH*outW, see im2colTBatchRange) and one
// tensor.GemmNN multiplies the group's filters against them.  in holds nImg
// contiguous CHW samples, o receives nImg CHW outputs, biasData may be nil;
// arguments must be pre-validated.
//
// For a single sample the GEMM's row stride outH*outW is the output's own
// plane stride, so it writes straight into o; if the convolution is also
// 1x1, stride 1 and unpadded, the patch matrix is the group's input planes
// as they lie in memory and nothing is staged.  A batch folds its samples
// into the GEMM columns, so the channel-major product lands in a group
// buffer and is copied out plane by plane.  Every output element is one
// bias-seeded dot product in (channel, ky, kx) order whichever case runs:
// bit-identical to Conv2DDirect for any batch size and worker count.
func (s *Scratch) convStaged(o, in []float32, weights *tensor.Tensor, biasData []float32, p ConvParams, nImg, inH, inW, outH, outW int) {
	groups := p.groups()
	inCPerGroup := p.InChannels / groups
	outCPerGroup := p.OutChannels / groups
	n1 := outH * outW
	nTot := nImg * n1
	k := inCPerGroup * p.KernelH * p.KernelW
	sampleStride := p.InChannels * inH * inW
	outSample := p.OutChannels * n1
	w := weights.Data()
	workers := s.Workers()

	inPlace := nImg == 1 && p.KernelH == 1 && p.KernelW == 1 &&
		p.StrideH == 1 && p.StrideW == 1 && p.PadH == 0 && p.PadW == 0
	var colT, gbuf []float32
	if !inPlace {
		colT = s.buffer(k * nTot)
	}
	if nImg > 1 {
		gbuf = s.batchBuf(1, outCPerGroup*nTot)
	}
	for g := 0; g < groups; g++ {
		icBase := g * inCPerGroup
		patches := colT
		if inPlace {
			patches = in[icBase*n1 : (icBase+inCPerGroup)*n1]
		} else {
			im2colTBatchPar(colT, in, nImg, sampleStride, inH, inW, icBase, inCPerGroup, p, outH, outW, workers)
		}
		oc0 := g * outCPerGroup
		var gb []float32
		if biasData != nil {
			gb = biasData[oc0 : oc0+outCPerGroup]
		}
		dst := gbuf
		if nImg == 1 {
			dst = o[oc0*n1 : (oc0+outCPerGroup)*n1]
		}
		tensor.GemmNNParallel(dst, w[oc0*k:(oc0+outCPerGroup)*k], patches, gb,
			outCPerGroup, nTot, k, nTot, workers)
		if nImg == 1 {
			continue
		}
		// Un-interleave the channel-major product (outC x nImg*n1) into the
		// sample-major NCHW layout: contiguous n1-float plane copies.
		for ocg := 0; ocg < outCPerGroup; ocg++ {
			src := gbuf[ocg*nTot : (ocg+1)*nTot]
			for img := 0; img < nImg; img++ {
				copy(o[img*outSample+(oc0+ocg)*n1:][:n1], src[img*n1:(img+1)*n1])
			}
		}
	}
}
