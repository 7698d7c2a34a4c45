package nn

import (
	"fmt"
	"math"

	"tango/internal/tensor"
)

// This file implements the native inference compute engine: Scratch-based
// variants of every forward kernel that reuse buffers across runs and lower
// the heavy layers (convolution, fully-connected, recurrent gates) onto the
// blocked GEMM/mat-vec kernels in package tensor.
//
// Every engine kernel is bit-identical to its reference counterpart
// (Conv2DDirect, the scalar MatVec, LSTMCell, GRUCell): the blocked kernels
// preserve the reference summation order — one float32 accumulator per
// output element, reduction index ascending — for any blocking and any
// worker count.  See the determinism contracts on tensor.GemmNN (the
// convolution core, conv.go) and tensor.Gemm (the mat-vec kernels).

// Scratch is the per-goroutine state of the compute engine: a
// shape-memoizing output arena, the convolution staging buffer (col, the
// l-major patch matrix of convStaged), recurrent gate buffers and the worker
// count for row-panel parallelism.  After the first
// run on a given network, repeated runs perform near-zero heap allocations.
//
// All tensors returned by Scratch methods alias the arena: their contents
// are valid until the next BeginRun on the same Scratch.  A Scratch is not
// safe for concurrent use; give each goroutine its own.  All methods accept
// a nil *Scratch, which falls back to freshly allocated outputs (still using
// the blocked kernels).
type Scratch struct {
	workers  int
	direct   bool
	numerics Numerics
	arena    tensor.Arena
	col      []float32
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
func NewScratch() *Scratch { return &Scratch{workers: 1} }

// SetWorkers sets the number of goroutines used for GEMM row panels; values
// below 1 select serial execution.  Results are bit-identical for any
// worker count.
func (s *Scratch) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// Workers returns the effective worker count (1 for a nil Scratch).
func (s *Scratch) Workers() int {
	if s == nil || s.workers < 1 {
		return 1
	}
	return s.workers
}

// SetDirect switches the Scratch to the direct reference kernels (the naive
// convolution loop nest and scalar dot products).  It exists to validate the
// engine: results must be bit-identical either way.
func (s *Scratch) SetDirect(direct bool) { s.direct = direct }

// Direct reports whether the Scratch uses the reference kernels.
func (s *Scratch) Direct() bool { return s != nil && s.direct }

// BeginRun rewinds the arena so this run reuses the previous run's buffers.
// Call it once at the start of every network execution.
func (s *Scratch) BeginRun() {
	if s != nil {
		s.arena.Reset()
	}
}

// ArenaBytes reports the backing storage held by the output arena.
func (s *Scratch) ArenaBytes() int64 {
	if s == nil {
		return 0
	}
	return s.arena.Bytes()
}

// Bytes reports the Scratch's total resident footprint: the output arena
// plus every reusable staging buffer (the reference convolution's patch
// matrix, recurrent gate vectors, batch buffers, the fused path's column
// panels, int8 planes, offset tables, activation, accumulator and scale
// buffers).  It is the memory-accounting surface behind per-model
// resident-bytes reporting.
func (s *Scratch) Bytes() int64 {
	if s == nil {
		return 0
	}
	n := s.arena.Bytes() + int64(cap(s.col))*4
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

// out1 returns a rank-1 output tensor (arena-backed when s is non-nil).
func (s *Scratch) out1(n int) *tensor.Tensor {
	if s == nil {
		return tensor.New(n)
	}
	return s.arena.Get1(n)
}

// out3 returns a CHW output tensor (arena-backed when s is non-nil).
func (s *Scratch) out3(c, h, w int) *tensor.Tensor {
	if s == nil {
		return tensor.New(c, h, w)
	}
	return s.arena.Get3(c, h, w)
}

// outLike returns an output tensor with t's shape.
func (s *Scratch) outLike(t *tensor.Tensor) *tensor.Tensor {
	switch t.Rank() {
	case 1:
		return s.out1(t.Dim(0))
	case 2:
		return s.out2(t.Dim(0), t.Dim(1))
	case 3:
		return s.out3(t.Dim(0), t.Dim(1), t.Dim(2))
	case 4:
		return s.out4(t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3))
	default:
		if s == nil {
			return tensor.New(t.Shape()...)
		}
		return s.arena.Get(t.Shape()...)
	}
}

// buffer returns a float32 staging buffer of length n, reused across calls.
func (s *Scratch) buffer(n int) []float32 {
	if s == nil {
		return make([]float32, n)
	}
	if cap(s.col) < n {
		s.col = make([]float32, n)
	}
	return s.col[:n]
}

// vec returns the recurrent gate buffer for the given slot, sized to n.
func (s *Scratch) vec(slot, n int) []float32 {
	if s == nil {
		return make([]float32, n)
	}
	for len(s.vecs) <= slot {
		s.vecs = append(s.vecs, nil)
	}
	if cap(s.vecs[slot]) < n {
		s.vecs[slot] = make([]float32, n)
	}
	return s.vecs[slot][:n]
}

// Arena1 returns an arena-backed rank-1 tensor of length n (freshly
// allocated for a nil Scratch).  Its contents are undefined: callers must
// overwrite every element.
func (s *Scratch) Arena1(n int) *tensor.Tensor { return s.out1(n) }

// LayerOutputs returns a reusable slice for per-layer output tensors.  The
// caller must overwrite every element.
func (s *Scratch) LayerOutputs(n int) []*tensor.Tensor {
	if s == nil {
		return make([]*tensor.Tensor, n)
	}
	if cap(s.outs) < n {
		s.outs = make([]*tensor.Tensor, n)
	}
	s.outs = s.outs[:n]
	return s.outs
}

// Ints returns a reusable int slice of length n (per-sample predictions of a
// batched run).  The caller must overwrite every element; contents are valid
// until the next call on the same Scratch.
func (s *Scratch) Ints(n int) []int {
	if s == nil {
		return make([]int, n)
	}
	if cap(s.preds) < n {
		s.preds = make([]int, n)
	}
	s.preds = s.preds[:n]
	return s.preds
}

// Conv2D is the engine convolution of one CHW sample: the staged core
// (convStaged) at batch size one, whose GEMM writes straight into the arena
// output.  Results are bit-identical to Conv2DDirect.
func (s *Scratch) Conv2D(input, weights, bias *tensor.Tensor, p ConvParams) (*tensor.Tensor, error) {
	_, inH, inW, outH, outW, err := checkConvArgs(input, weights, bias, p, 3)
	if err != nil {
		return nil, err
	}
	out := s.out3(p.OutChannels, outH, outW)
	if s.Direct() {
		conv2DDirectInto(out, input, weights, bias, p)
		return out, nil
	}
	s.convStaged(out.Data(), input.Data(), weights, bias, p, 1, inH, inW, outH, outW)
	return out, nil
}

// FullyConnected is the engine fully-connected layer, running on the
// register-tiled mat-vec kernel with row-panel parallelism.
func (s *Scratch) FullyConnected(input, weights, bias *tensor.Tensor, outFeatures int) (*tensor.Tensor, error) {
	inFeatures, err := checkFullyConnectedArgs(input, weights, bias, outFeatures)
	if err != nil {
		return nil, err
	}
	out := s.out1(outFeatures)
	var biasData []float32
	if bias != nil {
		biasData = bias.Data()
	}
	if s.Direct() {
		scalarMatVec(out.Data(), weights.Data(), input.Data(), biasData, outFeatures, inFeatures)
		return out, nil
	}
	tensor.MatVecBiasParallel(out.Data(), weights.Data(), input.Data(), biasData,
		outFeatures, inFeatures, s.Workers())
	return out, nil
}

// Pool2D is the engine pooling layer.
func (s *Scratch) Pool2D(input *tensor.Tensor, p PoolParams) (*tensor.Tensor, error) {
	c, _, _, outH, outW, err := checkPoolArgs(input, p)
	if err != nil {
		return nil, err
	}
	out := s.out3(c, outH, outW)
	pool2DInto(out, input, p)
	return out, nil
}

// GlobalAvgPool is the engine global average pooling layer.
func (s *Scratch) GlobalAvgPool(input *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkGlobalPoolArgs(input); err != nil {
		return nil, err
	}
	out := s.out1(input.Dim(0))
	globalAvgPoolInto(out, input)
	return out, nil
}

// LRN is the engine local response normalization layer.
func (s *Scratch) LRN(input *tensor.Tensor, p LRNParams) (*tensor.Tensor, error) {
	if err := checkLRNArgs(input, p); err != nil {
		return nil, err
	}
	out := s.out3(input.Dim(0), input.Dim(1), input.Dim(2))
	if s.lrnFastEligible(p) {
		lrnCoreFast(out.Data(), input.Data(), input.Dim(0), input.Dim(1), input.Dim(2), p,
			s.lrnSums(input.Dim(1)*input.Dim(2)))
		return out, nil
	}
	lrnInto(out, input, p)
	return out, nil
}

// BatchNorm is the engine batch normalization layer.
func (s *Scratch) BatchNorm(input *tensor.Tensor, p BatchNormParams) (*tensor.Tensor, error) {
	if err := checkBatchNormArgs(input, p); err != nil {
		return nil, err
	}
	out := s.out3(input.Dim(0), input.Dim(1), input.Dim(2))
	batchNormInto(out, input, p)
	return out, nil
}

// Scale is the engine per-channel affine layer.
func (s *Scratch) Scale(input, gamma, beta *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkScaleArgs(input, gamma, beta); err != nil {
		return nil, err
	}
	out := s.out3(input.Dim(0), input.Dim(1), input.Dim(2))
	scaleInto(out, input, gamma, beta)
	return out, nil
}

// ReLU is the engine out-of-place ReLU.
func (s *Scratch) ReLU(input *tensor.Tensor) (*tensor.Tensor, error) {
	if input == nil {
		return nil, fmt.Errorf("nn: relu: %w: nil input", tensor.ErrShape)
	}
	out := s.outLike(input)
	tensor.ReLU(out.Data(), input.Data())
	return out, nil
}

// EltwiseAdd is the engine element-wise addition.
func (s *Scratch) EltwiseAdd(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkEltwiseArgs("add", a, b); err != nil {
		return nil, err
	}
	out := s.outLike(a)
	eltwiseAddInto(out.Data(), a.Data(), b.Data())
	return out, nil
}

// ConcatChannels is the engine channel concatenation.
func (s *Scratch) ConcatChannels(parts ...*tensor.Tensor) (*tensor.Tensor, error) {
	totalC, h, w, err := checkConcatArgs(parts)
	if err != nil {
		return nil, err
	}
	out := s.out3(totalC, h, w)
	concatChannelsInto(out, parts)
	return out, nil
}

// Softmax is the engine softmax.
func (s *Scratch) Softmax(input *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkSoftmaxArgs(input); err != nil {
		return nil, err
	}
	out := s.outLike(input)
	softmaxInto(out.Data(), input.Data())
	return out, nil
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

// gatePre computes pre = (Wx*x + Uh*h) + b with the blocked mat-vec kernel,
// preserving the reference addition order of the naive gate computation
// (MatVec + MatVec, EltwiseAdd, EltwiseAdd bias).  Under a fast numerics
// tier the products run on the multi-chain mat-vec kernel instead (recurrent
// gates have no int8 lowering, so both fast tiers take the float path).
func (s *Scratch) gatePre(pre, tmp []float32, wx, uh, b *tensor.Tensor, x, h []float32, hidden, in, workers int) {
	if s.Numerics() != NumericsReference {
		tensor.MatVecFastParallel(pre, wx.Data(), x, nil, hidden, in, workers)
		tensor.MatVecFastParallel(tmp, uh.Data(), h, nil, hidden, hidden, workers)
	} else {
		tensor.MatVecBiasParallel(pre, wx.Data(), x, nil, hidden, in, workers)
		tensor.MatVecBiasParallel(tmp, uh.Data(), h, nil, hidden, hidden, workers)
	}
	bd := b.Data()
	for i := range pre {
		pre[i] = (pre[i] + tmp[i]) + bd[i]
	}
}

// LSTMStep advances st in place by one time step with input x, using the
// scratch gate buffers.  The weights must have been validated by the caller
// (once per sequence); results are bit-identical to LSTMCell.
func (s *Scratch) LSTMStep(w *LSTMWeights, st LSTMState, x *tensor.Tensor) error {
	if w == nil {
		return fmt.Errorf("nn: lstm step: nil weights")
	}
	if x == nil || x.Len() != w.Input {
		return fmt.Errorf("nn: lstm input has %d elements, want %d", tensorLen(x), w.Input)
	}
	if st.H == nil || st.C == nil || st.H.Len() != w.Hidden || st.C.Len() != w.Hidden {
		return fmt.Errorf("nn: lstm state must have hidden size %d", w.Hidden)
	}
	if s == nil || s.direct {
		next, err := LSTMCell(w, st, x)
		if err != nil {
			return err
		}
		copy(st.H.Data(), next.H.Data())
		copy(st.C.Data(), next.C.Data())
		return nil
	}

	hidden := w.Hidden
	pi := s.vec(0, hidden)
	pf := s.vec(1, hidden)
	po := s.vec(2, hidden)
	pc := s.vec(3, hidden)
	tmp := s.vec(4, hidden)
	xd, hd := x.Data(), st.H.Data()
	workers := s.Workers()

	s.gatePre(pi, tmp, w.Wi, w.Ui, w.Bi, xd, hd, hidden, w.Input, workers)
	s.gatePre(pf, tmp, w.Wf, w.Uf, w.Bf, xd, hd, hidden, w.Input, workers)
	s.gatePre(po, tmp, w.Wo, w.Uo, w.Bo, xd, hd, hidden, w.Input, workers)
	s.gatePre(pc, tmp, w.Wc, w.Uc, w.Bc, xd, hd, hidden, w.Input, workers)
	sigmoidInPlace(pi)
	sigmoidInPlace(pf)
	sigmoidInPlace(po)
	tanhInPlace(pc)

	cd := st.C.Data()
	for i := 0; i < hidden; i++ {
		fc := pf[i] * cd[i]
		ig := pi[i] * pc[i]
		cd[i] = fc + ig
	}
	for i := 0; i < hidden; i++ {
		hd[i] = po[i] * float32(math.Tanh(float64(cd[i])))
	}
	return nil
}

// GRUStep advances the hidden state h in place by one time step with input
// x, using the scratch gate buffers.  The weights must have been validated
// by the caller; results are bit-identical to GRUCell.
func (s *Scratch) GRUStep(w *GRUWeights, h *tensor.Tensor, x *tensor.Tensor) error {
	if w == nil {
		return fmt.Errorf("nn: gru step: nil weights")
	}
	if x == nil || x.Len() != w.Input {
		return fmt.Errorf("nn: gru input has %d elements, want %d", tensorLen(x), w.Input)
	}
	if h == nil || h.Len() != w.Hidden {
		return fmt.Errorf("nn: gru state must have hidden size %d", w.Hidden)
	}
	if s == nil || s.direct {
		next, err := GRUCell(w, h, x)
		if err != nil {
			return err
		}
		copy(h.Data(), next.Data())
		return nil
	}

	hidden := w.Hidden
	r := s.vec(0, hidden)
	z := s.vec(1, hidden)
	n := s.vec(2, hidden)
	rh := s.vec(3, hidden)
	tmp := s.vec(4, hidden)
	xd, hd := x.Data(), h.Data()
	workers := s.Workers()

	s.gatePre(r, tmp, w.Wr, w.Ur, w.Br, xd, hd, hidden, w.Input, workers)
	s.gatePre(z, tmp, w.Wz, w.Uz, w.Bz, xd, hd, hidden, w.Input, workers)
	sigmoidInPlace(r)
	sigmoidInPlace(z)
	for i := 0; i < hidden; i++ {
		rh[i] = r[i] * hd[i]
	}
	s.gatePre(n, tmp, w.Wh, w.Uh, w.Bh, xd, rh, hidden, w.Input, workers)
	tanhInPlace(n)
	for i := 0; i < hidden; i++ {
		zi := z[i]
		hd[i] = (1-zi)*n[i] + zi*hd[i]
	}
	return nil
}

// tensorLen reports a possibly-nil tensor's length for error messages.
func tensorLen(t *tensor.Tensor) int {
	if t == nil {
		return 0
	}
	return t.Len()
}
