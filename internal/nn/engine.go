package nn

import (
	"fmt"
	"math"

	"tango/internal/par"
	"tango/internal/tensor"
)

// This file implements the native inference compute engine: one Scratch op
// per layer kind, reusing buffers across runs and lowering the heavy layers
// onto the blocked kernels in package tensor — convolution onto the one
// panel core (fastfused.go) and its pack's GEMM panel kernel,
// fully-connected layers and recurrent gates onto the pack's mat-vec and
// GEMM.
//
// Every op takes one sample (rank 1 or 3) or a batch stacked along dim 0
// (rank 2 or 4) and returns the same kind — the recurrent ops one (steps,
// in) sequence or a time-major (steps, N, in) batch; a batch runs each
// sample's kernel, or folds the samples into one GEMM, so on the reference
// tier every sample's output is bit-identical to running it alone, and to
// the direct reference kernels (Conv2DDirect, the scalar MatVec, LSTMCell,
// GRUCell).
// The blocked kernels preserve the reference summation order — one float32
// accumulator per output element, reduction index ascending — for any
// blocking and any worker count.  See the determinism contracts on
// tensor.GemmNN (the convolution panels, the batched layers) and
// tensor.Gemm (the mat-vec kernels).

// Scratch is the per-goroutine state of the compute engine: a
// shape-memoizing output arena, the convolution's per-worker panel buffers,
// recurrent gate buffers, and the worker team every fork of the engine runs
// on (a tensor.Team: parked helpers plus the caller) with the descriptors
// of those forks.  After the first run on a given network, repeated runs
// perform near-zero heap allocations, at any worker count.
//
// All tensors returned by Scratch methods alias the arena: their contents
// are valid until the next BeginRun on the same Scratch.  A Scratch is not
// safe for concurrent use; give each goroutine its own.
type Scratch struct {
	team     tensor.Team
	conv     fusedJob
	split    splitJob
	direct   bool
	numerics Numerics
	arena    tensor.Arena
	vecs     [][]float32
	bbufs    [][]float32
	u8bufs   [][]uint8
	accbs    [][]int32
	planes   []uint8
	offs     []int32
	fpanels  [][]float32
	f64buf   []float64
	qscales  []float32
	outs     []*tensor.Tensor
	preds    []int
}

// NewScratch returns an empty single-worker Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// SetWorkers sets the size of the Scratch's worker team, the caller
// included; values below 1 select serial execution.  Results are
// bit-identical for any worker count.  The team's helpers start on the
// first fork that needs them and stop when the Scratch is collected.
func (s *Scratch) SetWorkers(n int) {
	if s.team.Team == nil {
		s.team.Team = par.NewTeam(n)
	}
	s.team.SetWorkers(n)
}

// Workers returns the effective worker count.
func (s *Scratch) Workers() int { return s.team.Workers() }

// SetDirect switches the Scratch to the direct reference kernels (the naive
// convolution loop nest and scalar dot products) at any batch size.  It
// exists to validate the engine: results must be bit-identical either way.
func (s *Scratch) SetDirect(direct bool) { s.direct = direct }

// BeginRun rewinds the arena so this run reuses the previous run's buffers.
// Call it once at the start of every network execution.
func (s *Scratch) BeginRun() { s.arena.Reset() }

// ArenaBytes reports the backing storage held by the output arena.
func (s *Scratch) ArenaBytes() int64 { return s.arena.Bytes() }

// Bytes reports the Scratch's total resident footprint: the output arena
// plus every reusable staging buffer (the convolution's column panels,
// recurrent gate vectors, batch buffers, int8 planes, offset tables,
// activation, accumulator and scale buffers).  It is the memory-accounting
// surface behind per-model resident-bytes reporting.
func (s *Scratch) Bytes() int64 {
	n := s.arena.Bytes()
	for _, v := range s.vecs {
		n += int64(cap(v)) * 4
	}
	for _, v := range s.bbufs {
		n += int64(cap(v)) * 4
	}
	for _, v := range s.u8bufs {
		n += int64(cap(v))
	}
	for _, v := range s.accbs {
		n += int64(cap(v)) * 4
	}
	for _, v := range s.fpanels {
		n += int64(cap(v)) * 4
	}
	n += int64(cap(s.planes)) + int64(cap(s.offs))*4
	n += int64(cap(s.f64buf)) * 8
	n += int64(cap(s.qscales)) * 4
	return n
}

// outLike returns an output tensor with t's shape.
func (s *Scratch) outLike(t *tensor.Tensor) *tensor.Tensor {
	switch t.Rank() {
	case 1:
		return s.arena.Get1(t.Dim(0))
	case 2:
		return s.arena.Get2(t.Dim(0), t.Dim(1))
	case 3:
		return s.arena.Get3(t.Dim(0), t.Dim(1), t.Dim(2))
	case 4:
		return s.arena.Get4(t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3))
	default:
		return s.arena.Get(t.Shape()...)
	}
}

// outMap returns a feature-map output of in's kind: CHW for one sample,
// NCHW for a batch of n.
func (s *Scratch) outMap(in *tensor.Tensor, n, c, h, w int) *tensor.Tensor {
	if in.Rank() == 4 {
		return s.arena.Get4(n, c, h, w)
	}
	return s.arena.Get3(c, h, w)
}

// outVec returns a vector output of in's kind: length f for one sample,
// (n, f) for a batch of n.
func (s *Scratch) outVec(in *tensor.Tensor, n, f int) *tensor.Tensor {
	if in.Rank()%2 == 0 {
		return s.arena.Get2(n, f)
	}
	return s.arena.Get1(f)
}

// samples returns how many samples an op operand holds: dim 0 of a batch
// (rank 2 or 4), one for a single sample (rank 1 or 3).
func samples(t *tensor.Tensor) int {
	if t.Rank()%2 == 0 {
		return t.Dim(0)
	}
	return 1
}

// featureMap validates a feature-map operand — one CHW sample or an NCHW
// batch — and returns its sample count and per-sample dims.
func featureMap(op string, t *tensor.Tensor) (n, c, h, w int, err error) {
	if t == nil || (t.Rank() != 3 && t.Rank() != 4) {
		return 0, 0, 0, 0, fmt.Errorf("nn: %s: %w: input must be CHW or NCHW, got shape %v",
			op, tensor.ErrShape, shapeOf(t))
	}
	r := t.Rank()
	return samples(t), t.Dim(r - 3), t.Dim(r - 2), t.Dim(r - 1), nil
}

// vec returns the recurrent buffer for the given slot, sized to n: slot 0
// holds a batch's feature-major hidden state, 1 the LSTM cell state, 2 the
// transposed step input, and 3-7 a step's gate buffers.
func (s *Scratch) vec(slot, n int) []float32 {
	for len(s.vecs) <= slot {
		s.vecs = append(s.vecs, nil)
	}
	return grown(&s.vecs[slot], n)
}

// Arena1 returns an arena-backed rank-1 tensor of length n.  Its contents
// are undefined: callers must overwrite every element.
func (s *Scratch) Arena1(n int) *tensor.Tensor { return s.arena.Get1(n) }

// Arena2 is Arena1 for a rank-2 (rows, cols) tensor.
func (s *Scratch) Arena2(rows, cols int) *tensor.Tensor { return s.arena.Get2(rows, cols) }

// LayerOutputs returns a reusable slice for per-layer output tensors.  The
// caller must overwrite every element.
func (s *Scratch) LayerOutputs(n int) []*tensor.Tensor { return grown(&s.outs, n) }

// Ints returns a reusable int slice of length n (per-sample predictions of a
// batched run).  The caller must overwrite every element; contents are valid
// until the next call on the same Scratch.
func (s *Scratch) Ints(n int) []int { return grown(&s.preds, n) }

// biasOf returns a possibly-nil bias tensor's data.
func biasOf(bias *tensor.Tensor) []float32 {
	if bias == nil {
		return nil
	}
	return bias.Data()
}

// Conv2DPacked is the convolution layer, over weights (outC x inC/groups x
// kh x kw) and an optional per-output-channel bias: each output element
// sums its (channel, ky, kx) taps in ascending order onto its bias, with
// one element per simulated GPU thread in the paper's mapping.  pk is the
// layer's weight pack, and it alone picks the kernel: every pack and batch
// size runs the one panel core (convFused, fastfused.go), float panels on
// the fast panel kernel, int8 panels on the int8 one, and a nil pack on the
// bit-exact one, identical to Conv2DDirect.  Under SetDirect it runs the
// direct loop nest image by image.  A batch of one is bit-identical to its
// single sample.
func (s *Scratch) Conv2DPacked(input, weights, bias *tensor.Tensor, p ConvParams, pk *Pack) (*tensor.Tensor, error) {
	nImg, inH, inW, outH, outW, err := checkConvArgs(input, weights, bias, p)
	if err != nil {
		return nil, err
	}
	out := s.outMap(input, nImg, p.OutChannels, outH, outW)
	o, in, w, b := out.Data(), input.Data(), weights.Data(), biasOf(bias)
	if s.direct {
		for i, ob, ib := 0, len(o)/nImg, len(in)/nImg; i < nImg; i++ {
			conv2DDirectCore(o[i*ob:(i+1)*ob], in[i*ib:(i+1)*ib], w, b, p, inH, inW, outH, outW)
		}
		return out, nil
	}
	s.convFused(o, in, w, b, pk, p, nImg, inH, inW, outH, outW)
	return out, nil
}

// FullyConnectedPacked is the fully-connected layer out = W*x + b, with W
// (outFeatures x inFeatures) and each sample's features its flattened block.
// One sample returns a rank-1 output, a batch an (N, outFeatures) one.  The
// kernel comes from the pack and the sample count (product): one sample runs
// the pack's mat-vec, two or more transpose to (inFeatures x N) and run its
// GEMM, streaming the weights once per batch.  With no pack both are one
// bias-seeded left-to-right dot product per output, so every sample's bits
// are the single-sample ones; SetDirect runs the scalar loop per sample.
func (s *Scratch) FullyConnectedPacked(input, weights, bias *tensor.Tensor, outFeatures int, pk *Pack) (*tensor.Tensor, error) {
	n, inF, err := checkFullyConnectedArgs(input, weights, bias, outFeatures)
	if err != nil {
		return nil, err
	}
	out := s.outVec(input, n, outFeatures)
	o, x, w, b := out.Data(), input.Data(), weights.Data(), biasOf(bias)
	if s.direct {
		for i := 0; i < n; i++ {
			scalarMatVec(o[i*outFeatures:(i+1)*outFeatures], w, x[i*inF:(i+1)*inF], b, outFeatures, inF)
		}
		return out, nil
	}
	if n == 1 {
		s.product(o, w, pk, 0, x, b, outFeatures, inF, 1, 1)
		return out, nil
	}
	// The fast float GEMM pads its columns up to the 16-wide FMA tile so a
	// small batch (3, 8) runs the vector microkernel instead of falling into
	// the scalar column tail.  Pad lanes are zero and are never read back.
	ld := n
	if pk != nil && pk.f != nil {
		ld = (n + 15) &^ 15
	}
	xT := s.batchBuf(0, inF*ld)
	s.transposeToColumns(xT, x, n, inF, ld)
	yT := s.batchBuf(1, outFeatures*ld)
	s.product(yT, w, pk, 0, xT, b, outFeatures, inF, n, ld)
	s.transposeToRows(o, yT, n, outFeatures, ld)
	return out, nil
}

// product writes dst = A*x + bias for matrix i of pk, A the m x k matrix
// whose raw weights are w, over the n columns of x: a vector (n = 1) runs
// the pack's mat-vec, a feature-major block (x: k x ld, dst: m x ld) its
// GEMM.
// No pack runs MatVecBiasParallel or GemmNNParallel; float panels
// MatVecFastParallel on the raw weights or GemmNNFastParallel over all ld
// columns; int8 panels MatVecInt8 on the vector quantized by QuantizeU8 or
// GemmInt8, one activation scale per call (ld must be n).  bias may be nil.
func (s *Scratch) product(dst, w []float32, pk *Pack, i int, x, bias []float32, m, k, n, ld int) {
	team := &s.team
	switch {
	case pk == nil && n == 1:
		tensor.MatVecBiasParallel(dst, w, x, bias, m, k, team)
	case pk == nil:
		tensor.GemmNNParallel(dst, w, x, bias, m, n, k, ld, team)
	case pk.q != nil && n == 1:
		xq := s.u8buf(0, pk.q[i].KPad())
		tensor.MatVecInt8(dst, pk.q[i], xq, bias, tensor.QuantizeU8(xq[:k], x), team)
	case pk.q != nil:
		kPad := pk.q[i].KPad()
		bp := s.u8buf(0, tensor.Int8PackedLen(kPad, n))
		acc := s.accbuf(0, tensor.Int8AccLen(m, n))
		tensor.GemmInt8(dst, pk.q[i], bp, acc, bias, tensor.PackColsU8(bp, x, k, n, ld, kPad), n, team)
	case n == 1:
		tensor.MatVecFastParallel(dst, w, x, bias, m, k, team)
	default:
		tensor.GemmNNFastParallel(dst, pk.f[i], x, bias, ld, ld, team)
	}
}

// Pool2D is the pooling layer: max or average pooling of each channel.
func (s *Scratch) Pool2D(input *tensor.Tensor, p PoolParams) (*tensor.Tensor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, c, inH, inW, err := featureMap("pool", input)
	if err != nil {
		return nil, err
	}
	outH, outW := p.OutputDims(inH, inW)
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("nn: pool output dims %dx%d are not positive for input %dx%d", outH, outW, inH, inW)
	}
	out := s.outMap(input, n, c, outH, outW)
	s.split = splitJob{run: poolPart, o: out.Data(), in: input.Data(), c: c, h: inH, w: inW, outH: outH, outW: outW, pool: p}
	s.fork(n, c, outH*outW*p.KernelH*p.KernelW*elemCost)
	return out, nil
}

// GlobalAvgPool is the global average pooling layer: each channel reduces
// to its spatial mean, a length-C vector per sample.  SqueezeNet's final
// layer uses it.
func (s *Scratch) GlobalAvgPool(input *tensor.Tensor) (*tensor.Tensor, error) {
	n, c, h, w, err := featureMap("global pool", input)
	if err != nil {
		return nil, err
	}
	out := s.outVec(input, n, c)
	s.split = splitJob{run: globalAvgPoolPart, o: out.Data(), in: input.Data(), c: c, h: h, w: w}
	s.fork(n, c, h*w*elemCost)
	return out, nil
}

// LRN is the local response normalization layer across channels:
// out[c] = in[c] / (k + alpha/n * sum_{c'} in[c']^2)^beta, the sum over the
// n-channel window centred on c.  It has no weights, so it is the one op
// that reads the Scratch's tier (SetNumerics): the fast tiers run
// lrnCoreFast when beta is exactly 3/4, the AlexNet/GoogLeNet exponent, for
// which x^-beta has a closed form in hardware square roots.  The reference
// core forks over (sample, channel) ranges; the fast one over (sample,
// pixel) ranges, so each pixel's rolling window sum stays in one worker.
// Either way the bytes do not depend on the split.
func (s *Scratch) LRN(input *tensor.Tensor, p LRNParams) (*tensor.Tensor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, c, h, w, err := featureMap("lrn", input)
	if err != nil {
		return nil, err
	}
	out := s.outMap(input, n, c, h, w)
	s.split = splitJob{run: lrnPart, o: out.Data(), in: input.Data(), c: c, h: h, w: w, lrn: p}
	if s.Numerics() != NumericsReference && p.Beta == 0.75 {
		s.split.sums = grown(&s.f64buf, n*h*w)
		s.fork(n, h*w, c*lrnFastCost)
		return out, nil
	}
	s.fork(n, c, lrnRefCost*h*w)
	return out, nil
}

// BatchNorm is the batch normalization layer: each channel is normalized
// with the stored mean and variance, out = (in - mean) / sqrt(var + eps).
func (s *Scratch) BatchNorm(input *tensor.Tensor, p BatchNormParams) (*tensor.Tensor, error) {
	n, c, h, w, err := featureMap("batchnorm", input)
	if err != nil {
		return nil, err
	}
	if p.Mean == nil || p.Variance == nil {
		return nil, fmt.Errorf("nn: batchnorm requires mean and variance")
	}
	if p.Mean.Len() != c || p.Variance.Len() != c {
		return nil, fmt.Errorf("nn: batchnorm stats length %d/%d, want %d", p.Mean.Len(), p.Variance.Len(), c)
	}
	out := s.outMap(input, n, c, h, w)
	s.split = splitJob{run: batchNormPart, o: out.Data(), in: input.Data(), c: c, h: h, w: w, bn: p}
	s.fork(n, c, h*w*elemCost)
	return out, nil
}

// Scale is the per-channel affine layer out = in*gamma + beta that Caffe
// models pair with BatchNorm.
func (s *Scratch) Scale(input, gamma, beta *tensor.Tensor) (*tensor.Tensor, error) {
	n, c, h, w, err := featureMap("scale", input)
	if err != nil {
		return nil, err
	}
	if gamma == nil || gamma.Len() != c {
		return nil, fmt.Errorf("nn: scale expects %d gammas", c)
	}
	if beta != nil && beta.Len() != c {
		return nil, fmt.Errorf("nn: scale expects %d betas, got %d", c, beta.Len())
	}
	out := s.outMap(input, n, c, h, w)
	s.split = splitJob{run: scalePart, o: out.Data(), in: input.Data(), c: c, h: h, w: w, gamma: gamma, beta: beta}
	s.fork(n, c, h*w*elemCost)
	return out, nil
}

// ReLU is the out-of-place ReLU, of any shape: negative elements become +0
// (tensor.ReLU, the one kernel of every ReLU here, has the contract for -0
// and NaN).  The paper's Observation 8 notes that ReLU's zeroing is one
// reason integer pipelines see heavy use even in floating-point networks.
func (s *Scratch) ReLU(input *tensor.Tensor) (*tensor.Tensor, error) {
	if input == nil {
		return nil, fmt.Errorf("nn: relu: %w: nil input", tensor.ErrShape)
	}
	out := s.outLike(input)
	tensor.ReLU(out.Data(), input.Data())
	return out, nil
}

// EltwiseAdd is the element-wise addition of two tensors of one shape.
func (s *Scratch) EltwiseAdd(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkEltwiseArgs("add", a, b); err != nil {
		return nil, err
	}
	out := s.outLike(a)
	o, bd := out.Data(), b.Data()
	for i, v := range a.Data() {
		o[i] = v + bd[i]
	}
	return out, nil
}

// ConcatChannels is the channel concatenation of feature maps of one kind
// (all CHW, or all NCHW of one batch size) sharing spatial dimensions.
// SqueezeNet's fire modules use it to join the 1x1 and 3x3 expand outputs.
func (s *Scratch) ConcatChannels(parts ...*tensor.Tensor) (*tensor.Tensor, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("nn: concat requires at least one tensor")
	}
	var n, h, w, totalC int
	for i, pt := range parts {
		pn, pc, ph, pw, err := featureMap("concat", pt)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			n, h, w = pn, ph, pw
		} else if pt.Rank() != parts[0].Rank() || pn != n || ph != h || pw != w {
			return nil, fmt.Errorf("%w: concat shape %v vs %v", tensor.ErrShape, pt.Shape(), parts[0].Shape())
		}
		totalC += pc
	}
	out := s.outMap(parts[0], n, totalC, h, w)
	o := out.Data()
	off := 0
	for img := 0; img < n; img++ {
		for _, pt := range parts {
			sample := pt.Len() / n
			off += copy(o[off:], pt.Data()[img*sample:(img+1)*sample])
		}
	}
	return out, nil
}

// Softmax is the softmax of each sample's flattened values, the normalized
// exponential computed with the usual max-subtraction for numerical
// stability.  A nil or empty input is an error.
func (s *Scratch) Softmax(input *tensor.Tensor) (*tensor.Tensor, error) {
	if input == nil || input.Len() == 0 {
		return nil, fmt.Errorf("nn: softmax: %w: nil or empty input", tensor.ErrShape)
	}
	out := s.outLike(input)
	o, in := out.Data(), input.Data()
	for i, n := 0, len(in)/samples(input); i < len(in); i += n {
		softmaxCore(o[i:i+n], in[i:i+n])
	}
	return out, nil
}

// The batched names below are the ops above; kept for benchmark/, delete
// with ROADMAP 2a.

// Conv2DBatchPacked is Conv2DPacked.
func (s *Scratch) Conv2DBatchPacked(input, weights, bias *tensor.Tensor, p ConvParams, pk *Pack) (*tensor.Tensor, error) {
	return s.Conv2DPacked(input, weights, bias, p, pk)
}

// FullyConnectedBatchPacked is FullyConnectedPacked.
func (s *Scratch) FullyConnectedBatchPacked(input, weights, bias *tensor.Tensor, outFeatures int, pk *Pack) (*tensor.Tensor, error) {
	return s.FullyConnectedPacked(input, weights, bias, outFeatures, pk)
}

// Pool2DBatch is Pool2D.
func (s *Scratch) Pool2DBatch(input *tensor.Tensor, p PoolParams) (*tensor.Tensor, error) {
	return s.Pool2D(input, p)
}

// LRNBatch is LRN.
func (s *Scratch) LRNBatch(input *tensor.Tensor, p LRNParams) (*tensor.Tensor, error) {
	return s.LRN(input, p)
}

// ReLUBatch is ReLU.
func (s *Scratch) ReLUBatch(input *tensor.Tensor) (*tensor.Tensor, error) { return s.ReLU(input) }

// SoftmaxBatch is Softmax.
func (s *Scratch) SoftmaxBatch(input *tensor.Tensor) (*tensor.Tensor, error) {
	return s.Softmax(input)
}

// LSTMStep advances st in place by one time step with input x: the LSTM
// op's step at N = 1.  Kept for benchmark/, delete with ROADMAP 2a.
func (s *Scratch) LSTMStep(w *LSTMWeights, st LSTMState, x *tensor.Tensor) error {
	s.lstmStep(w, nil, x.Data(), st.H.Data(), st.C.Data(), 1)
	return nil
}

// sigmoidInPlace applies the logistic function to every element of v using
// the exact expression of the reference Sigmoid kernel.
func sigmoidInPlace(v []float32) {
	for i, x := range v {
		v[i] = float32(1.0 / (1.0 + math.Exp(-float64(x))))
	}
}

// tanhInPlace applies the hyperbolic tangent to every element of v using the
// exact expression of the reference Tanh kernel.
func tanhInPlace(v []float32) {
	for i, x := range v {
		v[i] = float32(math.Tanh(float64(x)))
	}
}

// LSTM is the LSTM layer, run from a zero state over one (steps, in)
// sequence, answered with its final hidden state (length hidden), or over a
// time-major (steps, N, in) batch, each step a sample-major block, answered
// with (N, hidden).  w must pass Validate (a networks.Plan fetches each
// tensor of LSTMParams at its count); pk is the cell's pack, or nil.  Every
// gate takes its kernel from the pack and the sequence count (gate), so a
// batch of one is bit-identical to its single sequence with any pack and,
// with no pack, so is every sequence of a larger batch; SetDirect runs
// LSTMCell per sequence per step.
func (s *Scratch) LSTM(seq *tensor.Tensor, w *LSTMWeights, pk *Pack) (*tensor.Tensor, error) {
	if w == nil {
		return nil, fmt.Errorf("nn: lstm: nil weights")
	}
	out, steps, n, err := s.recurrentOut("lstm", seq, w.Hidden, w.Input)
	if err != nil {
		return nil, err
	}
	if s.direct {
		for i := 0; i < n; i++ {
			st := NewLSTMState(w.Hidden)
			for t := 0; t < steps; t++ {
				if st, err = LSTMCell(w, st, stepInput(seq, t, i, n)); err != nil {
					return nil, err
				}
			}
			copy(out.Data()[i*w.Hidden:], st.H.Data())
		}
		return out, nil
	}
	c := s.vec(1, w.Hidden*n)
	clear(c)
	s.unroll(out, seq, steps, n, func(x, h []float32) { s.lstmStep(w, pk, x, h, c, n) })
	return out, nil
}

// GRU is the GRU layer, with the operands and contract of LSTM; SetDirect
// runs GRUCell per sequence per step.
func (s *Scratch) GRU(seq *tensor.Tensor, w *GRUWeights, pk *Pack) (*tensor.Tensor, error) {
	if w == nil {
		return nil, fmt.Errorf("nn: gru: nil weights")
	}
	out, steps, n, err := s.recurrentOut("gru", seq, w.Hidden, w.Input)
	if err != nil {
		return nil, err
	}
	if s.direct {
		for i := 0; i < n; i++ {
			h := tensor.New(w.Hidden)
			for t := 0; t < steps; t++ {
				if h, err = GRUCell(w, h, stepInput(seq, t, i, n)); err != nil {
					return nil, err
				}
			}
			copy(out.Data()[i*w.Hidden:], h.Data())
		}
		return out, nil
	}
	s.unroll(out, seq, steps, n, func(x, h []float32) { s.gruStep(w, pk, x, h, n) })
	return out, nil
}

// recurrentOut validates a recurrent operand — one (steps, in) sequence or
// a (steps, N, in) batch — and returns an output of its kind: a
// length-hidden vector, or (N, hidden).
func (s *Scratch) recurrentOut(op string, seq *tensor.Tensor, hidden, in int) (out *tensor.Tensor, steps, n int, err error) {
	if seq == nil || (seq.Rank() != 2 && seq.Rank() != 3) || seq.Dim(seq.Rank()-1) != in {
		return nil, 0, 0, fmt.Errorf("nn: %s: %w: input must be (steps, %d) or (steps, N, %d), got shape %v",
			op, tensor.ErrShape, in, in, shapeOf(seq))
	}
	if seq.Rank() == 2 {
		return s.arena.Get1(hidden), seq.Dim(0), 1, nil
	}
	return s.arena.Get2(seq.Dim(1), hidden), seq.Dim(0), seq.Dim(1), nil
}

// stepInput wraps sequence i's input vector at step t of a recurrent
// operand holding n sequences.
func stepInput(seq *tensor.Tensor, t, i, n int) *tensor.Tensor {
	in := seq.Dim(seq.Rank() - 1)
	x, _ := tensor.FromSlice(seq.Data()[(t*n+i)*in:(t*n+i+1)*in], in)
	return x
}

// unroll runs step over every time step of seq from a zero hidden state and
// leaves the final state in out.  step advances the feature-major state h
// (hidden x n) over the feature-major input x (in x n); at n = 1 both are
// the plain vectors, h is out itself, and nothing is transposed.
func (s *Scratch) unroll(out, seq *tensor.Tensor, steps, n int, step func(x, h []float32)) {
	h, in := out.Data(), seq.Len()/(steps*n)
	if n > 1 {
		h = s.vec(0, len(h))
	}
	clear(h)
	for t := 0; t < steps; t++ {
		x := seq.Data()[t*n*in : (t+1)*n*in]
		if n > 1 {
			xT := s.vec(2, n*in)
			s.transposeToColumns(xT, x, n, in, n)
			x = xT
		}
		step(x, h)
	}
	if n > 1 {
		s.transposeToRows(out.Data(), h, n, len(h)/n, n)
	}
}

// lstmStep advances the feature-major LSTM state h, c (hidden x n) by one
// time step over the feature-major input x (in x n); with no pack it is
// LSTMCell bit for bit.
func (s *Scratch) lstmStep(w *LSTMWeights, pk *Pack, x, h, c []float32, n int) {
	hn := len(h)
	pi, pf, po, pc, tmp := s.vec(3, hn), s.vec(4, hn), s.vec(5, hn), s.vec(6, hn), s.vec(7, hn)
	s.gate(pi, tmp, w.Wi, w.Ui, w.Bi, pk, 0, x, h, n)
	s.gate(pf, tmp, w.Wf, w.Uf, w.Bf, pk, 1, x, h, n)
	s.gate(po, tmp, w.Wo, w.Uo, w.Bo, pk, 2, x, h, n)
	s.gate(pc, tmp, w.Wc, w.Uc, w.Bc, pk, 3, x, h, n)
	sigmoidInPlace(pi)
	sigmoidInPlace(pf)
	sigmoidInPlace(po)
	tanhInPlace(pc)
	for i := range c {
		fc := float32(pf[i] * c[i])
		ig := float32(pi[i] * pc[i])
		c[i] = fc + ig
	}
	for i := range h {
		h[i] = po[i] * float32(math.Tanh(float64(c[i])))
	}
}

// gruStep advances the feature-major GRU state h (hidden x n) by one time
// step over the feature-major input x (in x n); with no pack it is GRUCell
// bit for bit.
func (s *Scratch) gruStep(w *GRUWeights, pk *Pack, x, h []float32, n int) {
	hn := len(h)
	r, z, ng, rh, tmp := s.vec(3, hn), s.vec(4, hn), s.vec(5, hn), s.vec(6, hn), s.vec(7, hn)
	s.gate(r, tmp, w.Wr, w.Ur, w.Br, pk, 0, x, h, n)
	s.gate(z, tmp, w.Wz, w.Uz, w.Bz, pk, 1, x, h, n)
	sigmoidInPlace(r)
	sigmoidInPlace(z)
	for i := range rh {
		rh[i] = r[i] * h[i]
	}
	s.gate(ng, tmp, w.Wh, w.Uh, w.Bh, pk, 2, x, rh, n)
	tanhInPlace(ng)
	for i, zi := range z {
		h[i] = float32((1-zi)*ng[i]) + float32(zi*h[i])
	}
}

// gate computes gate g's pre-activation pre = (Wx*x + Uh*h) + b over
// feature-major operands — x (in x n), h and pre (hidden x n) — in the
// reference expression order: the input product, the recurrent product,
// then the bias; tmp is staging of pre's length.  Both products run on the
// cell pack's matrices 2g and 2g+1 (product): one sequence on its mat-vec,
// two or more on its GEMM.  With no pack both are one left-to-right dot
// product per element.
func (s *Scratch) gate(pre, tmp []float32, wx, uh, b *tensor.Tensor, pk *Pack, g int, x, h []float32, n int) {
	hidden, in := len(pre)/n, len(x)/n
	s.product(pre, wx.Data(), pk, 2*g, x, nil, hidden, in, n, n)
	s.product(tmp, uh.Data(), pk, 2*g+1, h, nil, hidden, hidden, n, n)
	bd := b.Data()
	for r := 0; r < hidden; r++ {
		bv := bd[r]
		prow, trow := pre[r*n:(r+1)*n], tmp[r*n:(r+1)*n]
		for i := range prow {
			prow[i] = (prow[i] + trow[i]) + bv
		}
	}
}
