package networks

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tango/internal/nn"
	"tango/internal/tensor"
)

// Result carries the outputs of one native inference run.
//
// When the run used a non-nil nn.Scratch, Output and LayerOutputs alias the
// scratch arena: they are valid until the next run on the same Scratch.
// Runs without a Scratch return freshly allocated tensors.
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
			if pl.lstm, err = loadLSTMWeights(l, w); err == nil {
				err = pl.lstm.Validate()
			}
		case LayerGRU:
			if pl.gru, err = loadGRUWeights(l, w); err == nil {
				err = pl.gru.Validate()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("networks: %s layer %q: %w", n.Name, l.Name, err)
		}
		p.layers[li] = pl
	}
	return p, nil
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

// Run executes a CNN natively on the given CHW input and returns the
// per-layer outputs.  A non-nil Scratch supplies the compute engine's
// reusable buffers, worker count and numerics tier; nil runs serially with
// fresh allocations.  Under the default reference tier results are
// bit-identical for any Scratch configuration; a fast tier
// (nn.Scratch.SetNumerics) runs the prepacked fast kernels under the
// tolerance contract described in the nn package.
func (p *Plan) Run(input *tensor.Tensor, s *nn.Scratch) (*Result, error) {
	n := p.net
	if n.Kind != KindCNN {
		return nil, fmt.Errorf("networks: %s is an RNN; use RunSequence", n.Name)
	}
	if input == nil || !equalShape(input.Shape(), n.InputShape) {
		got := []int(nil)
		if input != nil {
			got = input.Shape()
		}
		return nil, fmt.Errorf("networks: %s expects input shape %v, got %v", n.Name, n.InputShape, got)
	}
	s.BeginRun()
	pks := p.packsFor(s.Numerics())
	outs := s.LayerOutputs(len(n.Layers))
	for li := range p.layers {
		pl := &p.layers[li]
		out, err := p.runLayer(s, li, pl, input, outs, pks)
		if err != nil {
			return nil, fmt.Errorf("networks: %s layer %q: %w", n.Name, pl.l.Name, err)
		}
		if pl.l.FusedReLU {
			nn.ReLUInPlace(out)
		}
		outs[li] = out
	}
	final := outs[len(outs)-1]
	return &Result{Output: final, PredictedClass: final.MaxIndex(), LayerOutputs: outs}, nil
}

// resolveInput returns the tensor feeding input slot idx of layer li.
func (p *Plan) resolveInput(li, idx int, input *tensor.Tensor, outs []*tensor.Tensor) *tensor.Tensor {
	ref := p.net.Layers[li].Inputs[idx]
	if ref == InputRef {
		return input
	}
	return outs[ref]
}

// runLayer executes a single non-recurrent layer on the engine.
func (p *Plan) runLayer(s *nn.Scratch, li int, pl *planLayer, input *tensor.Tensor, outs []*tensor.Tensor, pks *planPacks) (*tensor.Tensor, error) {
	l := pl.l
	in0 := p.resolveInput(li, 0, input, outs)
	switch l.Type {
	case LayerConv:
		return s.Conv2DPacked(in0, pl.w, pl.b, l.Conv, pks.convAt(li))
	case LayerPool:
		return s.Pool2D(in0, l.Pool)
	case LayerFC:
		return s.FullyConnectedPacked(in0, pl.w, pl.b, l.FCOut, pks.fcAt(li))
	case LayerLRN:
		return s.LRN(in0, l.LRN)
	case LayerBatchNorm:
		return s.BatchNorm(in0, nn.BatchNormParams{Mean: pl.mean, Variance: pl.variance})
	case LayerScale:
		return s.Scale(in0, pl.gamma, pl.beta)
	case LayerReLU:
		return s.ReLU(in0)
	case LayerEltwise:
		return s.EltwiseAdd(in0, p.resolveInput(li, 1, input, outs))
	case LayerConcat:
		if len(l.Inputs) == 2 {
			return s.ConcatChannels(p.resolveInput(li, 0, input, outs), p.resolveInput(li, 1, input, outs))
		}
		parts := make([]*tensor.Tensor, len(l.Inputs))
		for i := range l.Inputs {
			parts[i] = p.resolveInput(li, i, input, outs)
		}
		return s.ConcatChannels(parts...)
	case LayerSoftmax:
		return s.Softmax(in0)
	case LayerGlobalPool:
		return s.GlobalAvgPool(in0)
	default:
		return nil, fmt.Errorf("unsupported layer type %v in CNN graph", l.Type)
	}
}

// RunSequence executes an RNN natively over a sequence of input vectors
// (each of length InputShape[0]) and returns the final output.  The networks
// in the suite end with a fully-connected regression head that projects the
// final hidden state to the predicted value.  Scratch semantics match Run.
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

	s.BeginRun()
	pks := p.packsFor(s.Numerics())
	outs := s.LayerOutputs(len(n.Layers))
	var current *tensor.Tensor
	for li := range p.layers {
		pl := &p.layers[li]
		l := pl.l
		switch l.Type {
		case LayerLSTM:
			st := nn.LSTMState{H: zeroed1(s, l.Hidden), C: zeroed1(s, l.Hidden)}
			for _, x := range seq {
				if err := s.LSTMStep(pl.lstm, st, x); err != nil {
					return nil, fmt.Errorf("networks: %s layer %q: %w", n.Name, l.Name, err)
				}
			}
			current = st.H
		case LayerGRU:
			h := zeroed1(s, l.Hidden)
			for _, x := range seq {
				if err := s.GRUStep(pl.gru, h, x); err != nil {
					return nil, fmt.Errorf("networks: %s layer %q: %w", n.Name, l.Name, err)
				}
			}
			current = h
		case LayerFC:
			if current == nil {
				return nil, fmt.Errorf("networks: %s layer %q: FC before recurrent layer", n.Name, l.Name)
			}
			var err error
			current, err = s.FullyConnectedPacked(current, pl.w, pl.b, l.FCOut, pks.fcAt(li))
			if err != nil {
				return nil, fmt.Errorf("networks: %s layer %q: %w", n.Name, l.Name, err)
			}
		default:
			return nil, fmt.Errorf("networks: %s layer %q: unsupported layer type %v in RNN graph", n.Name, l.Name, l.Type)
		}
		if l.FusedReLU && current != nil {
			nn.ReLUInPlace(current)
		}
		outs[li] = current
	}
	return &Result{Output: current, PredictedClass: -1, LayerOutputs: outs}, nil
}

// zeroed1 returns a zero-filled rank-1 tensor of length n from the scratch
// arena (arena tensors carry the previous run's state).
func zeroed1(s *nn.Scratch, n int) *tensor.Tensor {
	t := s.Arena1(n)
	t.Zero()
	return t
}

func loadLSTMWeights(l *Layer, w Weights) (*nn.LSTMWeights, error) {
	h, in := l.Hidden, l.InSize
	get := func(p string, count int) (*tensor.Tensor, error) { return w.Get(l.Name, p, count) }
	var err error
	lw := &nn.LSTMWeights{Hidden: h, Input: in}
	if lw.Wi, err = get("Wi", h*in); err != nil {
		return nil, err
	}
	if lw.Wf, err = get("Wf", h*in); err != nil {
		return nil, err
	}
	if lw.Wo, err = get("Wo", h*in); err != nil {
		return nil, err
	}
	if lw.Wc, err = get("Wc", h*in); err != nil {
		return nil, err
	}
	if lw.Ui, err = get("Ui", h*h); err != nil {
		return nil, err
	}
	if lw.Uf, err = get("Uf", h*h); err != nil {
		return nil, err
	}
	if lw.Uo, err = get("Uo", h*h); err != nil {
		return nil, err
	}
	if lw.Uc, err = get("Uc", h*h); err != nil {
		return nil, err
	}
	if lw.Bi, err = get("Bi", h); err != nil {
		return nil, err
	}
	if lw.Bf, err = get("Bf", h); err != nil {
		return nil, err
	}
	if lw.Bo, err = get("Bo", h); err != nil {
		return nil, err
	}
	if lw.Bc, err = get("Bc", h); err != nil {
		return nil, err
	}
	return lw, nil
}

func loadGRUWeights(l *Layer, w Weights) (*nn.GRUWeights, error) {
	h, in := l.Hidden, l.InSize
	get := func(p string, count int) (*tensor.Tensor, error) { return w.Get(l.Name, p, count) }
	var err error
	gw := &nn.GRUWeights{Hidden: h, Input: in}
	if gw.Wr, err = get("Wr", h*in); err != nil {
		return nil, err
	}
	if gw.Wz, err = get("Wz", h*in); err != nil {
		return nil, err
	}
	if gw.Wh, err = get("Wh", h*in); err != nil {
		return nil, err
	}
	if gw.Ur, err = get("Ur", h*h); err != nil {
		return nil, err
	}
	if gw.Uz, err = get("Uz", h*h); err != nil {
		return nil, err
	}
	if gw.Uh, err = get("Uh", h*h); err != nil {
		return nil, err
	}
	if gw.Br, err = get("Br", h); err != nil {
		return nil, err
	}
	if gw.Bz, err = get("Bz", h); err != nil {
		return nil, err
	}
	if gw.Bh, err = get("Bh", h); err != nil {
		return nil, err
	}
	return gw, nil
}
