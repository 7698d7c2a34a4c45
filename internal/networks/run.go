package networks

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"tango/internal/nn"
	"tango/internal/tensor"
)

// Result carries the outputs of one native inference run.
//
// Output and LayerOutputs alias the run's nn.Scratch arena: they are valid
// until the next run on the same Scratch.  Runs without a Scratch return
// freshly allocated tensors.
type Result struct {
	// Output is the final layer's output tensor.
	Output *tensor.Tensor
	// PredictedClass is the arg-max of the final output (CNN classifiers);
	// -1 for regression outputs.
	PredictedClass int
	// LayerOutputs holds every layer's output tensor, indexed like
	// Network.Layers.
	LayerOutputs []*tensor.Tensor
}

// BatchResult carries the outputs of one batched native inference run.
//
// Output and PredictedClasses alias the run's nn.Scratch: they are valid
// until the next run on the same Scratch.  Runs without a Scratch return
// freshly allocated storage.
type BatchResult struct {
	// N is the batch size.
	N int
	// Output is the final layer's batched output, one sample per leading
	// row: rank-2 (N, classes) for the suite's CNN classifiers and
	// (N, 1) for the RNN regression heads.
	Output *tensor.Tensor
	// PredictedClasses holds the arg-max class per sample for CNN
	// classifiers; nil for regression outputs.
	PredictedClasses []int
}

// planLayer holds one layer of a Plan with its parameter tensors resolved.
type planLayer struct {
	l              *Layer
	w, b           *tensor.Tensor // conv / fc
	mean, variance *tensor.Tensor // batchnorm
	gamma, beta    *tensor.Tensor // scale
	lstm           *nn.LSTMWeights
	gru            *nn.GRUWeights
}

// Plan is a network bound to a resolved weight set: every parameter tensor
// is looked up and validated once, so repeated runs skip the per-layer
// weight resolution entirely.  A Plan is safe for concurrent use; per-run
// mutable state lives in the nn.Scratch passed to Run/RunSequence, and the
// lazily built fast-tier weight panels are guarded by a sync.Once per mode.
type Plan struct {
	net    *Network
	layers []planLayer

	fastOnce  sync.Once
	int8Once  sync.Once
	fastPacks atomic.Pointer[planPacks]
	int8Packs atomic.Pointer[planPacks]
}

// planPacks holds one numerics mode's prepacked weight panels, indexed like
// Plan.layers (nil entries for layers without packable weights).
type planPacks struct {
	conv []*nn.ConvPack
	fc   []*nn.FCPack
	rnn  []*nn.RNNPack
}

func (pp *planPacks) convAt(li int) *nn.ConvPack {
	if pp == nil {
		return nil
	}
	return pp.conv[li]
}

func (pp *planPacks) fcAt(li int) *nn.FCPack {
	if pp == nil {
		return nil
	}
	return pp.fc[li]
}

func (pp *planPacks) rnnAt(li int) *nn.RNNPack {
	if pp == nil {
		return nil
	}
	return pp.rnn[li]
}

// Pack builds the fast-numerics weight panels for mode, once per Plan:
// subsequent calls (and every run under that mode) reuse them with no
// further packing or allocation.  NumericsReference needs no packing.  Runs
// pack lazily on first use, so calling Pack up front only moves the one-time
// cost out of the first inference.
func (p *Plan) Pack(mode nn.Numerics) {
	switch mode {
	case nn.NumericsFast:
		p.fastOnce.Do(func() { p.fastPacks.Store(p.buildPacks(mode)) })
	case nn.NumericsInt8:
		p.int8Once.Do(func() { p.int8Packs.Store(p.buildPacks(mode)) })
	}
}

// packsFor returns the weight panels for mode, building them on first use.
func (p *Plan) packsFor(mode nn.Numerics) *planPacks {
	p.Pack(mode)
	switch mode {
	case nn.NumericsFast:
		return p.fastPacks.Load()
	case nn.NumericsInt8:
		return p.int8Packs.Load()
	}
	return nil
}

func (p *Plan) buildPacks(mode nn.Numerics) *planPacks {
	pp := &planPacks{
		conv: make([]*nn.ConvPack, len(p.layers)),
		fc:   make([]*nn.FCPack, len(p.layers)),
		rnn:  make([]*nn.RNNPack, len(p.layers)),
	}
	for li := range p.layers {
		pl := &p.layers[li]
		switch pl.l.Type {
		case LayerConv:
			pp.conv[li] = nn.PackConv(pl.w, pl.l.Conv, mode)
		case LayerFC:
			pp.fc[li] = nn.PackFC(pl.w, pl.l.FCOut, pl.w.Len()/pl.l.FCOut, mode)
		case LayerLSTM:
			pp.rnn[li] = nn.PackLSTM(pl.lstm, mode)
		case LayerGRU:
			pp.rnn[li] = nn.PackGRU(pl.gru, mode)
		}
	}
	return pp
}

// NewPlan resolves every layer's parameters from w and returns a reusable
// execution plan.  Build must have been called on the network.
func (n *Network) NewPlan(w Weights) (*Plan, error) {
	if !n.built {
		return nil, fmt.Errorf("networks: %s: NewPlan before Build", n.Name)
	}
	p := &Plan{net: n, layers: make([]planLayer, len(n.Layers))}
	for li := range n.Layers {
		l := &n.Layers[li]
		pl := planLayer{l: l}
		var err error
		switch l.Type {
		case LayerConv:
			if pl.w, err = w.Get(l.Name, "weights", l.Conv.WeightCount()); err == nil {
				pl.b, err = w.Get(l.Name, "bias", l.Conv.OutChannels)
			}
		case LayerFC:
			in, ierr := n.inputShapeOf(li, 0)
			if ierr != nil {
				return nil, ierr
			}
			if pl.w, err = w.Get(l.Name, "weights", l.FCOut*elems(in)); err == nil {
				pl.b, err = w.Get(l.Name, "bias", l.FCOut)
			}
		case LayerBatchNorm:
			c := l.OutShape[0]
			if pl.mean, err = w.Get(l.Name, "mean", c); err == nil {
				pl.variance, err = w.Get(l.Name, "variance", c)
			}
		case LayerScale:
			c := l.OutShape[0]
			if pl.gamma, err = w.Get(l.Name, "gamma", c); err == nil {
				pl.beta, err = w.Get(l.Name, "beta", c)
			}
		case LayerLSTM:
			pl.lstm = &nn.LSTMWeights{Hidden: l.Hidden, Input: l.InSize}
			err = loadCell(w, l, pl.lstm, nn.LSTMParams[:])
		case LayerGRU:
			pl.gru = &nn.GRUWeights{Hidden: l.Hidden, Input: l.InSize}
			err = loadCell(w, l, pl.gru, nn.GRUParams[:])
		}
		if err != nil {
			return nil, fmt.Errorf("networks: %s layer %q: %w", n.Name, l.Name, err)
		}
		p.layers[li] = pl
	}
	return p, nil
}

// loadCell fetches every tensor of a recurrent layer's parameter table from
// w into cell.
func loadCell[W any](w Weights, l *Layer, cell *W, params []nn.Param[W]) error {
	for _, p := range params {
		t, err := w.Get(l.Name, p.Name, p.Count(l.Hidden, l.InSize))
		if err != nil {
			return err
		}
		*p.Field(cell) = t
	}
	return nil
}

// Network returns the plan's network.
func (p *Plan) Network() *Network { return p.net }

// PackedBytes returns the storage held by the fast-tier weight panels built
// so far (zero until a fast or int8 run packs them).  The raw weight
// tensors the packs alias are accounted by the weight set, not here.
func (p *Plan) PackedBytes() int64 {
	var n int64
	for _, pp := range []*planPacks{p.fastPacks.Load(), p.int8Packs.Load()} {
		if pp == nil {
			continue
		}
		for li := range p.layers {
			n += pp.conv[li].Bytes() + pp.fc[li].Bytes() + pp.rnn[li].Bytes()
		}
	}
	return n
}

// Run executes a CNN natively on one CHW input and returns the per-layer
// outputs.  s supplies the compute engine's reusable buffers, worker count
// and numerics tier; a nil s runs serially on a fresh Scratch.  Under the
// default reference tier results are bit-identical for any Scratch
// configuration; a fast tier (nn.Scratch.SetNumerics) runs the prepacked
// fast kernels under the tolerance contract described in the nn package.
func (p *Plan) Run(input *tensor.Tensor, s *nn.Scratch) (*Result, error) {
	n := p.net
	if n.Kind != KindCNN {
		return nil, fmt.Errorf("networks: %s is an RNN; use RunSequence", n.Name)
	}
	if !n.fits(input, 0) {
		return nil, fmt.Errorf("networks: %s expects input shape %v, got %v", n.Name, n.InputShape, shapeOf(input))
	}
	s = begin(s)
	outs, err := p.walk(input, s)
	if err != nil {
		return nil, err
	}
	final := outs[len(outs)-1]
	return &Result{Output: final, PredictedClass: final.MaxIndex(), LayerOutputs: outs}, nil
}

// RunBatch executes a CNN natively over a batch of inputs stacked along a
// leading dimension: input is rank-4 (N, C, H, W) with each sample a
// contiguous CHW block.  It walks the same layer ops as Run, which fold the
// batch into their GEMMs.  On the reference tier every sample is
// bit-identical to Run on it, for any Scratch configuration and worker
// count; on every tier a batch of one is bit-identical to Run.
func (p *Plan) RunBatch(input *tensor.Tensor, s *nn.Scratch) (*BatchResult, error) {
	n := p.net
	if n.Kind != KindCNN {
		return nil, fmt.Errorf("networks: %s is an RNN; use RunSequenceBatch", n.Name)
	}
	if !n.fits(input, 1) {
		return nil, fmt.Errorf("networks: %s batch: %w: expects shape (N, %v), got %v",
			n.Name, tensor.ErrShape, n.InputShape, shapeOf(input))
	}
	s = begin(s)
	outs, err := p.walk(input, s)
	if err != nil {
		return nil, err
	}
	return batchResult(s, outs[len(outs)-1], input.Dim(0), true), nil
}

// fits reports whether t is one input sample (lead 0) or a batch of samples
// stacked along a leading dimension (lead 1), comparing dims in place.
func (n *Network) fits(t *tensor.Tensor, lead int) bool {
	if t == nil || t.Rank() != lead+len(n.InputShape) {
		return false
	}
	for i, d := range n.InputShape {
		if t.Dim(lead+i) != d {
			return false
		}
	}
	return true
}

// shapeOf formats a possibly-nil tensor's shape for error messages.
func shapeOf(t *tensor.Tensor) []int {
	if t == nil {
		return nil
	}
	return t.Shape()
}

// resolveInput returns the tensor feeding input slot idx of layer li.
func (p *Plan) resolveInput(li, idx int, input *tensor.Tensor, outs []*tensor.Tensor) *tensor.Tensor {
	ref := p.net.Layers[li].Inputs[idx]
	if ref == InputRef {
		return input
	}
	return outs[ref]
}

// begin returns s, or a fresh Scratch for a nil one, with a run begun.
func begin(s *nn.Scratch) *nn.Scratch {
	if s == nil {
		s = nn.NewScratch()
	}
	s.BeginRun()
	return s
}

// walk runs every layer of a network, in graph order, over input on a begun
// run of s: one sample or a batch (for an RNN one (steps, in) sequence or a
// (steps, N, in) batch), which every nn op accepts and answers in kind.  It
// is the only switch over layer types on the run path, and returns the
// per-layer outputs, held in s.
func (p *Plan) walk(input *tensor.Tensor, s *nn.Scratch) ([]*tensor.Tensor, error) {
	pks := p.packsFor(s.Numerics())
	outs := s.LayerOutputs(len(p.layers))
	for li := range p.layers {
		pl := &p.layers[li]
		l := pl.l
		in0 := p.resolveInput(li, 0, input, outs)
		var out *tensor.Tensor
		var err error
		switch l.Type {
		case LayerConv:
			out, err = s.Conv2DPacked(in0, pl.w, pl.b, l.Conv, pks.convAt(li))
		case LayerPool:
			out, err = s.Pool2D(in0, l.Pool)
		case LayerFC:
			out, err = s.FullyConnectedPacked(in0, pl.w, pl.b, l.FCOut, pks.fcAt(li))
		case LayerLRN:
			out, err = s.LRN(in0, l.LRN)
		case LayerBatchNorm:
			out, err = s.BatchNorm(in0, nn.BatchNormParams{Mean: pl.mean, Variance: pl.variance})
		case LayerScale:
			out, err = s.Scale(in0, pl.gamma, pl.beta)
		case LayerReLU:
			out, err = s.ReLU(in0)
		case LayerEltwise:
			out, err = s.EltwiseAdd(in0, p.resolveInput(li, 1, input, outs))
		case LayerConcat:
			if len(l.Inputs) == 2 {
				out, err = s.ConcatChannels(in0, p.resolveInput(li, 1, input, outs))
				break
			}
			parts := make([]*tensor.Tensor, len(l.Inputs))
			for i := range l.Inputs {
				parts[i] = p.resolveInput(li, i, input, outs)
			}
			out, err = s.ConcatChannels(parts...)
		case LayerSoftmax:
			out, err = s.Softmax(in0)
		case LayerGlobalPool:
			out, err = s.GlobalAvgPool(in0)
		case LayerLSTM:
			out, err = s.LSTM(in0, pl.lstm, pks.rnnAt(li))
		case LayerGRU:
			out, err = s.GRU(in0, pl.gru, pks.rnnAt(li))
		default:
			err = fmt.Errorf("unsupported layer type %v", l.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("networks: %s layer %q: %w", p.net.Name, l.Name, err)
		}
		if l.FusedReLU {
			nn.ReLUInPlace(out)
		}
		outs[li] = out
	}
	return outs, nil
}

// RunSequence executes an RNN natively over a sequence of input vectors
// (each of length InputShape[0]) and returns the final output.  The networks
// in the suite end with a fully-connected regression head that projects the
// final hidden state to the predicted value.  The sequence is copied into
// one (steps, features) arena tensor and walked like Run's input; Scratch
// semantics match Run.
func (p *Plan) RunSequence(seq []*tensor.Tensor, s *nn.Scratch) (*Result, error) {
	n := p.net
	if n.Kind != KindRNN {
		return nil, fmt.Errorf("networks: %s is a CNN; use Run", n.Name)
	}
	if len(seq) == 0 {
		return nil, fmt.Errorf("networks: %s: empty input sequence", n.Name)
	}
	inSize := n.InputShape[0]
	for i, x := range seq {
		if x == nil || x.Len() != inSize {
			return nil, fmt.Errorf("networks: %s: sequence element %d must have %d features", n.Name, i, inSize)
		}
	}
	s = begin(s)
	in := s.Arena2(len(seq), inSize)
	for i, x := range seq {
		copy(in.Data()[i*inSize:], x.Data())
	}
	outs, err := p.walk(in, s)
	if err != nil {
		return nil, err
	}
	return &Result{Output: outs[len(outs)-1], PredictedClass: -1, LayerOutputs: outs}, nil
}

// RunSequenceBatch executes an RNN natively over a batch of equal-length
// sequences.  seq is rank-3 (steps, N, features): time-major with each step
// a contiguous sample-major block.  It walks the same layer ops as
// RunSequence, whose recurrent gates run as GEMMs over the batch from two
// sequences on, with per-sample hidden (and cell) state.  On the reference
// tier every sequence is bit-identical to RunSequence on it; on every tier
// a batch of one is bit-identical to RunSequence.
func (p *Plan) RunSequenceBatch(seq *tensor.Tensor, s *nn.Scratch) (*BatchResult, error) {
	n := p.net
	if n.Kind != KindRNN {
		return nil, fmt.Errorf("networks: %s is a CNN; use RunBatch", n.Name)
	}
	inSize := n.InputShape[0]
	if seq == nil || seq.Rank() != 3 || seq.Dim(2) != inSize {
		return nil, fmt.Errorf("networks: %s batch: %w: expects shape (steps, N, %d), got %v",
			n.Name, tensor.ErrShape, inSize, shapeOf(seq))
	}
	s = begin(s)
	outs, err := p.walk(seq, s)
	if err != nil {
		return nil, err
	}
	return batchResult(s, outs[len(outs)-1], seq.Dim(1), false), nil
}

// batchResult assembles a BatchResult, computing per-sample arg-max classes
// for classifiers into the scratch's reusable prediction slice.
func batchResult(s *nn.Scratch, final *tensor.Tensor, nSamples int, classify bool) *BatchResult {
	res := &BatchResult{N: nSamples, Output: final}
	if !classify {
		return res
	}
	preds := s.Ints(nSamples)
	f := final.Len() / nSamples
	data := final.Data()
	for i := 0; i < nSamples; i++ {
		preds[i] = argmaxRow(data[i*f : (i+1)*f])
	}
	res.PredictedClasses = preds
	return res
}

// argmaxRow returns the index of the largest element with exactly the
// comparison sequence of tensor.MaxIndex (start at -Inf, ties and NaNs
// resolve identically), so batched predictions match the single-sample path
// on every input.
func argmaxRow(row []float32) int {
	best := 0
	bestV := float32(math.Inf(-1))
	for i, v := range row {
		if v > bestV {
			bestV = v
			best = i
		}
	}
	return best
}
