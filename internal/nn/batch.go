package nn

import (
	"fmt"
	"math"

	"tango/internal/par"
	"tango/internal/tensor"
)

// This file implements the batched compute engine: every forward kernel over
// a leading batch dimension N, built so a batch of N samples produces
// BIT-IDENTICAL results to running each sample through the single-sample
// engine (and therefore to the direct reference kernels).
//
// Layout conventions:
//
//   - Feature-map batches are rank-4 NCHW tensors (sample-major, each
//     sample a contiguous CHW block).
//   - Vector batches are rank-2 (N, F) tensors.
//   - Inside the heavy kernels the batch is folded into the GEMM column
//     dimension: the convolution core (convStaged; Conv2D is its N=1 case)
//     stages an l-major (k x N*outH*outW) patch matrix so each per-group
//     GEMM sees every output pixel of every image at once, and the batched
//     fully-connected layer transposes the inputs
//     to (inF x N) so one GEMM replaces N mat-vecs and streams the weight
//     matrix once per batch instead of once per sample.
//
// Bit-exactness: each output element is an independent dot product
// accumulated left to right from its bias (see the tensor.GemmNN contract).
// Folding the batch into the column dimension adds columns but never
// changes any element's summation order, so batched outputs equal the
// single-sample engine's bit for bit, for any batch size, blocking or
// worker count.

// batchBuf returns the batch staging buffer for the given slot, sized to n.
// Slot contents are only valid within one engine call.
func (s *Scratch) batchBuf(slot, n int) []float32 {
	if s == nil {
		return make([]float32, n)
	}
	for len(s.bbufs) <= slot {
		s.bbufs = append(s.bbufs, nil)
	}
	if cap(s.bbufs[slot]) < n {
		s.bbufs[slot] = make([]float32, n)
	}
	return s.bbufs[slot][:n]
}

// out4 returns an NCHW output tensor (arena-backed when s is non-nil).
func (s *Scratch) out4(n, c, h, w int) *tensor.Tensor {
	if s == nil {
		return tensor.New(n, c, h, w)
	}
	return s.arena.Get4(n, c, h, w)
}

// out2 returns a rank-2 (N, F) output tensor (arena-backed when s is
// non-nil).
func (s *Scratch) out2(n, f int) *tensor.Tensor {
	if s == nil {
		return tensor.New(n, f)
	}
	return s.arena.Get2(n, f)
}

// checkBatchInput validates the leading batch dimension of a rank-4 input.
func checkBatchInput(op string, input *tensor.Tensor) (n, c, h, w int, err error) {
	if input == nil {
		return 0, 0, 0, 0, fmt.Errorf("nn: %s: %w: nil batch input", op, tensor.ErrShape)
	}
	if input.Rank() != 4 {
		return 0, 0, 0, 0, fmt.Errorf("nn: %s: %w: batch input must be NCHW, got shape %v",
			op, tensor.ErrShape, input.Shape())
	}
	return input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3), nil
}

// Conv2DBatch is the batched engine convolution over an NCHW input: the
// staged core (convStaged) with the batch folded into the GEMM column
// dimension (M = N*outH*outW in the paper's orientation).  Results are
// bit-identical to Conv2D on each sample.
func (s *Scratch) Conv2DBatch(input, weights, bias *tensor.Tensor, p ConvParams) (*tensor.Tensor, error) {
	nImg, inH, inW, outH, outW, err := checkConvArgs(input, weights, bias, p, 4)
	if err != nil {
		return nil, err
	}
	out := s.out4(nImg, p.OutChannels, outH, outW)
	s.convStaged(out.Data(), input.Data(), weights, bias, p, nImg, inH, inW, outH, outW)
	return out, nil
}

// im2colTBatchRange stages patch rows [l0, l1) of the receptive-field
// patches of all images in l-major layout: colT[l*(nImg*n1) + img*n1 +
// oy*outW + ox] where l runs over (channel, ky, kx) of the group's input
// channels.  Padding positions are zero.  The l-major layout keeps eight
// neighbouring output pixels contiguous for the vector GEMM kernel.  Each
// row is written by exactly one call, so any partitioning of the range
// produces identical bytes.
func im2colTBatchRange(colT, in []float32, nImg, sampleStride, inH, inW, icBase int, p ConvParams, outH, outW, l0, l1 int) {
	n1 := outH * outW
	nTot := nImg * n1
	khw := p.KernelH * p.KernelW
	for l := l0; l < l1; l++ {
		ic := l / khw
		rem := l - ic*khw
		ky := rem / p.KernelW
		kx := rem - ky*p.KernelW
		planeOff := (icBase + ic) * inH * inW
		row := colT[l*nTot : (l+1)*nTot]
		for img := 0; img < nImg; img++ {
			plane := in[img*sampleStride+planeOff : img*sampleStride+planeOff+inH*inW]
			packPatchRow(row[img*n1:(img+1)*n1], plane, inH, inW, p, outH, outW, ky, kx, 0)
		}
	}
}

// im2colTBatchPar fans the staging rows over the worker pool in contiguous
// index-ordered chunks.  Partitioning never changes the bytes written, so
// callers stay bit-identical for any worker count; small stagings run
// serially.
func im2colTBatchPar(colT, in []float32, nImg, sampleStride, inH, inW, icBase, icCount int, p ConvParams, outH, outW, workers int) {
	rows := icCount * p.KernelH * p.KernelW
	nTot := nImg * outH * outW
	if workers > rows {
		workers = rows
	}
	if workers <= 1 || int64(rows)*int64(nTot) < stagingParMin {
		im2colTBatchRange(colT, in, nImg, sampleStride, inH, inW, icBase, p, outH, outW, 0, rows)
		return
	}
	forEachChunk(workers, rows, func(l0, l1 int) {
		im2colTBatchRange(colT, in, nImg, sampleStride, inH, inW, icBase, p, outH, outW, l0, l1)
	})
}

// forEachChunk splits [0, n) into one contiguous index-ordered chunk per
// worker and runs fn(lo, hi) for each on the pool.  Callers return before
// constructing fn when the copy is serial (workers <= 1 or fewer than
// stagingParMin elements): the closure escapes, and the serial path must
// stay allocation-free.
func forEachChunk(workers, n int, fn func(lo, hi int)) {
	chunk := (n + workers - 1) / workers
	_ = par.ForEach(workers, (n+chunk-1)/chunk, func(c int) error {
		fn(c*chunk, min(c*chunk+chunk, n))
		return nil
	})
}

// stagingParMin is the element-count floor below which staging copies
// (im2col, batch transposes) stay serial: forking the pool costs more than
// the copy.
const stagingParMin = 1 << 15

// checkFullyConnectedBatchArgs validates a batched fully-connected layer
// and returns the batch size and the per-sample feature count.
func checkFullyConnectedBatchArgs(input, weights, bias *tensor.Tensor, outFeatures int) (nImg, inF int, err error) {
	if input == nil || input.Rank() < 2 {
		return 0, 0, fmt.Errorf("nn: fc: %w: batch input must have a leading batch dimension, got %v",
			tensor.ErrShape, shapeOf(input))
	}
	nImg = input.Dim(0)
	inF = input.Len() / nImg
	if outFeatures <= 0 {
		return 0, 0, fmt.Errorf("nn: fc output features must be positive, got %d", outFeatures)
	}
	if weights == nil || weights.Len() != outFeatures*inF {
		return 0, 0, fmt.Errorf("nn: fc expects %d weights (%dx%d), got %d",
			outFeatures*inF, outFeatures, inF, tensorLen(weights))
	}
	if bias != nil && bias.Len() != outFeatures {
		return 0, 0, fmt.Errorf("nn: fc expects %d biases, got %d", outFeatures, bias.Len())
	}
	return nImg, inF, nil
}

// FullyConnectedBatch is the batched engine fully-connected layer: the
// batch's flattened inputs are transposed to (inF x N) and a single GEMM
// computes all samples, streaming the weight matrix once per batch instead
// of once per sample.  The input may be rank-2 (N, F) or rank-4 NCHW; each
// sample's features are its flattened contiguous block.  Results are
// bit-identical to FullyConnected on each sample.
func (s *Scratch) FullyConnectedBatch(input, weights, bias *tensor.Tensor, outFeatures int) (*tensor.Tensor, error) {
	nImg, inF, err := checkFullyConnectedBatchArgs(input, weights, bias, outFeatures)
	if err != nil {
		return nil, err
	}
	in := input.Data()
	workers := s.Workers()
	xT := s.batchBuf(0, inF*nImg)
	transposeToColumnsPar(xT, in, nImg, inF, workers)
	yT := s.batchBuf(1, outFeatures*nImg)
	var biasData []float32
	if bias != nil {
		biasData = bias.Data()
	}
	tensor.GemmNNParallel(yT, weights.Data(), xT, biasData, outFeatures, nImg, inF, nImg, workers)
	out := s.out2(nImg, outFeatures)
	transposeToRowsPar(out.Data(), yT, nImg, outFeatures, nImg, workers)
	return out, nil
}

// transposeToColumns repacks sample-major rows (n x f) into feature-major
// columns (f x n): dst[l*n + smp] = src[smp*f + l].
func transposeToColumns(dst, src []float32, n, f int) {
	transposeToColumnsRange(dst, src, n, f, n, 0, f)
}

// transposeToColumnsRange writes feature rows [f0, f1) of the (f x ld)
// column-major destination.  Disjoint ranges touch disjoint dst rows.
func transposeToColumnsRange(dst, src []float32, n, f, ld, f0, f1 int) {
	for smp := 0; smp < n; smp++ {
		row := src[smp*f+f0 : smp*f+f1]
		for l, v := range row {
			dst[(f0+l)*ld+smp] = v
		}
	}
}

// transposeToColumnsPar is transposeToColumns fanned over the worker pool in
// contiguous feature chunks; bytes are identical for any worker count.
func transposeToColumnsPar(dst, src []float32, n, f, workers int) {
	if workers > f {
		workers = f
	}
	if workers <= 1 || int64(n)*int64(f) < stagingParMin {
		transposeToColumns(dst, src, n, f)
		return
	}
	forEachChunk(workers, f, func(f0, f1 int) {
		transposeToColumnsRange(dst, src, n, f, n, f0, f1)
	})
}

// transposeToColumnsPad is transposeToColumns with the destination rows ld
// floats apart (ld >= n); pad lanes [n, ld) are zeroed so a column-padded
// GEMM reads defined values.  Parallel over feature chunks like
// transposeToColumnsPar.
func transposeToColumnsPad(dst, src []float32, n, f, ld, workers int) {
	if workers > f {
		workers = f
	}
	if workers <= 1 || int64(ld)*int64(f) < stagingParMin {
		transposeToColumnsPadRange(dst, src, n, f, ld, 0, f)
		return
	}
	forEachChunk(workers, f, func(f0, f1 int) {
		transposeToColumnsPadRange(dst, src, n, f, ld, f0, f1)
	})
}

func transposeToColumnsPadRange(dst, src []float32, n, f, ld, f0, f1 int) {
	if ld > n {
		for l := f0; l < f1; l++ {
			pad := dst[l*ld+n : (l+1)*ld]
			for i := range pad {
				pad[i] = 0
			}
		}
	}
	transposeToColumnsRange(dst, src, n, f, ld, f0, f1)
}

// transposeToRowsRange reads the (f x ld) column-major source back into
// sample rows [s0, s1).  Disjoint ranges touch disjoint dst rows.
func transposeToRowsRange(dst, src []float32, n, f, ld, s0, s1 int) {
	for smp := s0; smp < s1; smp++ {
		row := dst[smp*f : (smp+1)*f]
		for l := range row {
			row[l] = src[l*ld+smp]
		}
	}
}

// transposeToRowsPar repacks feature-major columns (f x ld, the first n of
// each row used) back into sample-major rows (n x f): dst[smp*f + l] =
// src[l*ld + smp], fanned over the worker pool in contiguous sample chunks.
func transposeToRowsPar(dst, src []float32, n, f, ld, workers int) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || int64(n)*int64(f) < stagingParMin {
		transposeToRowsRange(dst, src, n, f, ld, 0, n)
		return
	}
	forEachChunk(workers, n, func(s0, s1 int) {
		transposeToRowsRange(dst, src, n, f, ld, s0, s1)
	})
}

// Pool2DBatch is the batched engine pooling layer.
func (s *Scratch) Pool2DBatch(input *tensor.Tensor, p PoolParams) (*tensor.Tensor, error) {
	nImg, c, inH, inW, err := checkBatchInput("pool", input)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	outH, outW := p.OutputDims(inH, inW)
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("nn: pool output dims %dx%d are not positive for input %dx%d",
			outH, outW, inH, inW)
	}
	out := s.out4(nImg, c, outH, outW)
	in := input.Data()
	o := out.Data()
	inSample := c * inH * inW
	outSample := c * outH * outW
	for img := 0; img < nImg; img++ {
		pool2DCore(o[img*outSample:(img+1)*outSample], in[img*inSample:(img+1)*inSample],
			c, inH, inW, outH, outW, p)
	}
	return out, nil
}

// GlobalAvgPoolBatch is the batched engine global average pooling layer,
// returning a rank-2 (N, C) tensor.
func (s *Scratch) GlobalAvgPoolBatch(input *tensor.Tensor) (*tensor.Tensor, error) {
	nImg, c, h, w, err := checkBatchInput("global pool", input)
	if err != nil {
		return nil, err
	}
	out := s.out2(nImg, c)
	in := input.Data()
	o := out.Data()
	inSample := c * h * w
	for img := 0; img < nImg; img++ {
		globalAvgPoolCore(o[img*c:(img+1)*c], in[img*inSample:(img+1)*inSample], c, h, w)
	}
	return out, nil
}

// LRNBatch is the batched engine local response normalization layer.
func (s *Scratch) LRNBatch(input *tensor.Tensor, p LRNParams) (*tensor.Tensor, error) {
	nImg, c, h, w, err := checkBatchInput("lrn", input)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := s.out4(nImg, c, h, w)
	in := input.Data()
	o := out.Data()
	sample := c * h * w
	if s.lrnFastEligible(p) {
		sums := s.lrnSums(h * w)
		for img := 0; img < nImg; img++ {
			lrnCoreFast(o[img*sample:(img+1)*sample], in[img*sample:(img+1)*sample], c, h, w, p, sums)
		}
		return out, nil
	}
	for img := 0; img < nImg; img++ {
		lrnCore(o[img*sample:(img+1)*sample], in[img*sample:(img+1)*sample], c, h, w, p)
	}
	return out, nil
}

// BatchNormBatch is the batched engine batch normalization layer.
func (s *Scratch) BatchNormBatch(input *tensor.Tensor, p BatchNormParams) (*tensor.Tensor, error) {
	nImg, c, h, w, err := checkBatchInput("batchnorm", input)
	if err != nil {
		return nil, err
	}
	if p.Mean == nil || p.Variance == nil {
		return nil, fmt.Errorf("nn: batchnorm requires mean and variance")
	}
	if p.Mean.Len() != c || p.Variance.Len() != c {
		return nil, fmt.Errorf("nn: batchnorm stats length %d/%d, want %d", p.Mean.Len(), p.Variance.Len(), c)
	}
	out := s.out4(nImg, c, h, w)
	in := input.Data()
	o := out.Data()
	sample := c * h * w
	for img := 0; img < nImg; img++ {
		batchNormCore(o[img*sample:(img+1)*sample], in[img*sample:(img+1)*sample], c, h, w, p)
	}
	return out, nil
}

// ScaleBatch is the batched engine per-channel affine layer.
func (s *Scratch) ScaleBatch(input, gamma, beta *tensor.Tensor) (*tensor.Tensor, error) {
	nImg, c, h, w, err := checkBatchInput("scale", input)
	if err != nil {
		return nil, err
	}
	if gamma == nil || gamma.Len() != c {
		return nil, fmt.Errorf("nn: scale expects %d gammas", c)
	}
	if beta != nil && beta.Len() != c {
		return nil, fmt.Errorf("nn: scale expects %d betas, got %d", c, beta.Len())
	}
	out := s.out4(nImg, c, h, w)
	in := input.Data()
	o := out.Data()
	sample := c * h * w
	for img := 0; img < nImg; img++ {
		scaleCore(o[img*sample:(img+1)*sample], in[img*sample:(img+1)*sample], c, h, w, gamma, beta)
	}
	return out, nil
}

// ReLUBatch is the batched engine out-of-place ReLU.
func (s *Scratch) ReLUBatch(input *tensor.Tensor) (*tensor.Tensor, error) {
	if input == nil {
		return nil, fmt.Errorf("nn: relu: %w: nil input", tensor.ErrShape)
	}
	out := s.outLike(input)
	tensor.ReLU(out.Data(), input.Data())
	return out, nil
}

// EltwiseAddBatch is the batched engine element-wise addition.
func (s *Scratch) EltwiseAddBatch(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkEltwiseArgs("add", a, b); err != nil {
		return nil, err
	}
	out := s.outLike(a)
	eltwiseAddInto(out.Data(), a.Data(), b.Data())
	return out, nil
}

// ConcatChannelsBatch is the batched engine channel concatenation over NCHW
// inputs sharing batch and spatial dimensions.
func (s *Scratch) ConcatChannelsBatch(parts ...*tensor.Tensor) (*tensor.Tensor, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("nn: concat requires at least one tensor")
	}
	var nImg, h, w, totalC int
	for i, p := range parts {
		pn, pc, ph, pw, err := checkBatchInput("concat", p)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			nImg, h, w = pn, ph, pw
		} else if pn != nImg || ph != h || pw != w {
			return nil, fmt.Errorf("%w: concat batch/spatial dims %dx%dx%d vs %dx%dx%d",
				tensor.ErrShape, pn, ph, pw, nImg, h, w)
		}
		totalC += pc
	}
	out := s.out4(nImg, totalC, h, w)
	o := out.Data()
	outSample := totalC * h * w
	for img := 0; img < nImg; img++ {
		off := img * outSample
		for _, p := range parts {
			sample := p.Len() / nImg
			copy(o[off:off+sample], p.Data()[img*sample:(img+1)*sample])
			off += sample
		}
	}
	return out, nil
}

// SoftmaxBatch is the batched engine softmax over a rank-2 (N, F) input,
// applied independently to each sample row.
func (s *Scratch) SoftmaxBatch(input *tensor.Tensor) (*tensor.Tensor, error) {
	if input == nil || input.Rank() < 2 || input.Len() == 0 {
		return nil, fmt.Errorf("nn: softmax: %w: batch input must be rank >= 2 and non-empty, got %v",
			tensor.ErrShape, shapeOf(input))
	}
	nImg := input.Dim(0)
	f := input.Len() / nImg
	out := s.outLike(input)
	in := input.Data()
	o := out.Data()
	for img := 0; img < nImg; img++ {
		softmaxInto(o[img*f:(img+1)*f], in[img*f:(img+1)*f])
	}
	return out, nil
}

// gatePreBatch computes pre = (Wx*X + Uh*H) + b over the whole batch with
// two GEMMs, in the exact per-element expression order of gatePre: the Wx
// product accumulates first, the Uh product second, the bias last.  pre and
// tmp are (hidden x n) feature-major; xT and hT are the transposed inputs.
func (s *Scratch) gatePreBatch(pre, tmp []float32, wx, uh, b *tensor.Tensor, xT, hT []float32, hidden, in, n, workers int) {
	tensor.GemmNNParallel(pre, wx.Data(), xT, nil, hidden, n, in, n, workers)
	tensor.GemmNNParallel(tmp, uh.Data(), hT, nil, hidden, n, hidden, n, workers)
	bd := b.Data()
	for hr := 0; hr < hidden; hr++ {
		bv := bd[hr]
		prow := pre[hr*n : (hr+1)*n]
		trow := tmp[hr*n : (hr+1)*n]
		for i := range prow {
			prow[i] = (prow[i] + trow[i]) + bv
		}
	}
}

// LSTMSeqBatchPacked runs an LSTM over n sequences at once with per-sample
// hidden and cell state.  seq is laid out (steps x n x input), each time step
// a contiguous sample-major block.  It returns the final hidden state as a
// rank-2 (n, hidden) tensor.  On the reference tier, or with a nil pack,
// results are bit-identical to stepping each sequence through LSTMStep;
// under a fast numerics tier a gate pack puts the gate GEMMs on the
// prepacked multi-chain kernels.
func (s *Scratch) LSTMSeqBatchPacked(w *LSTMWeights, pk *RNNPack, seq []float32, n, steps int) (*tensor.Tensor, error) {
	if w == nil {
		return nil, fmt.Errorf("nn: lstm batch: nil weights")
	}
	if n <= 0 || steps <= 0 {
		return nil, fmt.Errorf("nn: lstm batch: %w: need positive batch and steps, got n=%d steps=%d",
			tensor.ErrShape, n, steps)
	}
	if len(seq) != steps*n*w.Input {
		return nil, fmt.Errorf("nn: lstm batch: %w: sequence buffer has %d elements, want %d",
			tensor.ErrShape, len(seq), steps*n*w.Input)
	}
	hidden := w.Hidden
	hn := hidden * n
	// Feature-major state and gate buffers: the state doubles as the GEMM
	// B operand of the recurrent term, so it never needs re-transposing.
	hT := s.vec(0, hn)
	cT := s.vec(1, hn)
	pi := s.vec(2, hn)
	pf := s.vec(3, hn)
	po := s.vec(4, hn)
	pc := s.vec(5, hn)
	tmp := s.vec(6, hn)
	xT := s.vec(7, n*w.Input)
	for i := range hT {
		hT[i] = 0
	}
	for i := range cT {
		cT[i] = 0
	}
	workers := s.Workers()
	fast := pk != nil && s.Numerics() != NumericsReference

	for t := 0; t < steps; t++ {
		x := seq[t*n*w.Input : (t+1)*n*w.Input]
		transposeToColumnsPar(xT, x, n, w.Input, workers)
		if fast {
			s.gatePreBatchFast(pi, tmp, pk.gates[0], w.Bi, xT, hT, hidden, n, workers)
			s.gatePreBatchFast(pf, tmp, pk.gates[1], w.Bf, xT, hT, hidden, n, workers)
			s.gatePreBatchFast(po, tmp, pk.gates[2], w.Bo, xT, hT, hidden, n, workers)
			s.gatePreBatchFast(pc, tmp, pk.gates[3], w.Bc, xT, hT, hidden, n, workers)
		} else {
			s.gatePreBatch(pi, tmp, w.Wi, w.Ui, w.Bi, xT, hT, hidden, w.Input, n, workers)
			s.gatePreBatch(pf, tmp, w.Wf, w.Uf, w.Bf, xT, hT, hidden, w.Input, n, workers)
			s.gatePreBatch(po, tmp, w.Wo, w.Uo, w.Bo, xT, hT, hidden, w.Input, n, workers)
			s.gatePreBatch(pc, tmp, w.Wc, w.Uc, w.Bc, xT, hT, hidden, w.Input, n, workers)
		}
		sigmoidInPlace(pi)
		sigmoidInPlace(pf)
		sigmoidInPlace(po)
		tanhInPlace(pc)
		for i := 0; i < hn; i++ {
			fc := pf[i] * cT[i]
			ig := pi[i] * pc[i]
			cT[i] = fc + ig
		}
		for i := 0; i < hn; i++ {
			hT[i] = po[i] * float32(math.Tanh(float64(cT[i])))
		}
	}
	out := s.out2(n, hidden)
	transposeToRowsPar(out.Data(), hT, n, hidden, n, workers)
	return out, nil
}

// GRUSeqBatchPacked runs a GRU over n sequences at once with per-sample
// hidden state, with an optional fast-tier gate pack.  seq is laid out
// (steps x n x input).  It returns the final hidden state as a rank-2
// (n, hidden) tensor; on the reference tier, or with a nil pack,
// bit-identical to stepping each sequence through GRUStep.
func (s *Scratch) GRUSeqBatchPacked(w *GRUWeights, pk *RNNPack, seq []float32, n, steps int) (*tensor.Tensor, error) {
	if w == nil {
		return nil, fmt.Errorf("nn: gru batch: nil weights")
	}
	if n <= 0 || steps <= 0 {
		return nil, fmt.Errorf("nn: gru batch: %w: need positive batch and steps, got n=%d steps=%d",
			tensor.ErrShape, n, steps)
	}
	if len(seq) != steps*n*w.Input {
		return nil, fmt.Errorf("nn: gru batch: %w: sequence buffer has %d elements, want %d",
			tensor.ErrShape, len(seq), steps*n*w.Input)
	}
	hidden := w.Hidden
	hn := hidden * n
	hT := s.vec(0, hn)
	r := s.vec(1, hn)
	z := s.vec(2, hn)
	ng := s.vec(3, hn)
	rh := s.vec(4, hn)
	tmp := s.vec(5, hn)
	xT := s.vec(6, n*w.Input)
	for i := range hT {
		hT[i] = 0
	}
	workers := s.Workers()
	fast := pk != nil && s.Numerics() != NumericsReference

	for t := 0; t < steps; t++ {
		x := seq[t*n*w.Input : (t+1)*n*w.Input]
		transposeToColumnsPar(xT, x, n, w.Input, workers)
		if fast {
			s.gatePreBatchFast(r, tmp, pk.gates[0], w.Br, xT, hT, hidden, n, workers)
			s.gatePreBatchFast(z, tmp, pk.gates[1], w.Bz, xT, hT, hidden, n, workers)
		} else {
			s.gatePreBatch(r, tmp, w.Wr, w.Ur, w.Br, xT, hT, hidden, w.Input, n, workers)
			s.gatePreBatch(z, tmp, w.Wz, w.Uz, w.Bz, xT, hT, hidden, w.Input, n, workers)
		}
		sigmoidInPlace(r)
		sigmoidInPlace(z)
		for i := 0; i < hn; i++ {
			rh[i] = r[i] * hT[i]
		}
		if fast {
			s.gatePreBatchFast(ng, tmp, pk.gates[2], w.Bh, xT, rh, hidden, n, workers)
		} else {
			s.gatePreBatch(ng, tmp, w.Wh, w.Uh, w.Bh, xT, rh, hidden, w.Input, n, workers)
		}
		tanhInPlace(ng)
		for i := 0; i < hn; i++ {
			zi := z[i]
			hT[i] = (1-zi)*ng[i] + zi*hT[i]
		}
	}
	out := s.out2(n, hidden)
	transposeToRowsPar(out.Data(), hT, n, hidden, n, workers)
	return out, nil
}
