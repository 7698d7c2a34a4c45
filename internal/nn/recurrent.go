package nn

import (
	"fmt"

	"tango/internal/tensor"
)

// LSTMWeights holds the gate parameters of one LSTM layer.  Each W* matrix
// has shape (hidden x input) and each U* matrix (hidden x hidden); biases
// have length hidden.  The gate order follows the paper's description: input,
// forget and output gates plus the candidate cell update.
type LSTMWeights struct {
	Hidden int
	Input  int

	Wi, Wf, Wo, Wc *tensor.Tensor
	Ui, Uf, Uo, Uc *tensor.Tensor
	Bi, Bf, Bo, Bc *tensor.Tensor
}

// Param is one row of a recurrent cell's parameter table: a tensor's name
// in a weight set, its shape, and the field of the cell's weights W that
// holds it.  The tables are static, so walking one allocates nothing.
type Param[W any] struct {
	Name  string
	Shape ParamShape
	Field func(*W) **tensor.Tensor
}

// ParamShape is the shape of a recurrent cell parameter.
type ParamShape uint8

// The shapes of a cell's parameters, in units of its dims.
const (
	InputMatrix     ParamShape = iota // hidden x input
	RecurrentMatrix                   // hidden x hidden
	Bias                              // hidden
)

// Count returns the parameter's element count in a cell of the given dims.
func (p Param[W]) Count(hidden, input int) int {
	switch p.Shape {
	case InputMatrix:
		return hidden * input
	case RecurrentMatrix:
		return hidden * hidden
	}
	return hidden
}

// LSTMParams is the LSTM's parameter table: the input matrices, the
// recurrent matrices and the biases, each in gate order i, f, o, c.
// Validate, PackLSTM and the networks package's weight specs and loading
// all walk it.
var LSTMParams = [...]Param[LSTMWeights]{
	{"Wi", InputMatrix, func(w *LSTMWeights) **tensor.Tensor { return &w.Wi }},
	{"Wf", InputMatrix, func(w *LSTMWeights) **tensor.Tensor { return &w.Wf }},
	{"Wo", InputMatrix, func(w *LSTMWeights) **tensor.Tensor { return &w.Wo }},
	{"Wc", InputMatrix, func(w *LSTMWeights) **tensor.Tensor { return &w.Wc }},
	{"Ui", RecurrentMatrix, func(w *LSTMWeights) **tensor.Tensor { return &w.Ui }},
	{"Uf", RecurrentMatrix, func(w *LSTMWeights) **tensor.Tensor { return &w.Uf }},
	{"Uo", RecurrentMatrix, func(w *LSTMWeights) **tensor.Tensor { return &w.Uo }},
	{"Uc", RecurrentMatrix, func(w *LSTMWeights) **tensor.Tensor { return &w.Uc }},
	{"Bi", Bias, func(w *LSTMWeights) **tensor.Tensor { return &w.Bi }},
	{"Bf", Bias, func(w *LSTMWeights) **tensor.Tensor { return &w.Bf }},
	{"Bo", Bias, func(w *LSTMWeights) **tensor.Tensor { return &w.Bo }},
	{"Bc", Bias, func(w *LSTMWeights) **tensor.Tensor { return &w.Bc }},
}

// Validate checks all weight shapes.
func (w *LSTMWeights) Validate() error {
	return validateCell("lstm", w, w.Hidden, w.Input, LSTMParams[:])
}

// validateCell checks a cell's dimensions and every tensor of its parameter
// table.
func validateCell[W any](op string, w *W, hidden, input int, params []Param[W]) error {
	if hidden <= 0 || input <= 0 {
		return fmt.Errorf("nn: %s dims must be positive, got hidden=%d input=%d", op, hidden, input)
	}
	for _, p := range params {
		t := *p.Field(w)
		if t == nil {
			return fmt.Errorf("nn: %s weight %s is nil", op, p.Name)
		}
		if n, want := t.Len(), p.Count(hidden, input); n != want {
			return fmt.Errorf("nn: %s weight %s has %d elements, want %d", op, p.Name, n, want)
		}
	}
	return nil
}

// LSTMState is the recurrent state carried between time steps.
type LSTMState struct {
	H *tensor.Tensor // hidden state, length hidden
	C *tensor.Tensor // cell state, length hidden
}

// NewLSTMState returns a zero-initialized state for the given hidden size.
func NewLSTMState(hidden int) LSTMState {
	return LSTMState{H: tensor.New(hidden), C: tensor.New(hidden)}
}

// LSTMCell advances the LSTM by one time step with input x (length Input) and
// returns the new state.
//
//	i = sigmoid(Wi*x + Ui*h + bi)
//	f = sigmoid(Wf*x + Uf*h + bf)
//	o = sigmoid(Wo*x + Uo*h + bo)
//	g = tanh(Wc*x + Uc*h + bc)
//	c' = f.*c + i.*g
//	h' = o .* tanh(c')
func LSTMCell(w *LSTMWeights, st LSTMState, x *tensor.Tensor) (LSTMState, error) {
	if err := w.Validate(); err != nil {
		return LSTMState{}, err
	}
	if x.Len() != w.Input {
		return LSTMState{}, fmt.Errorf("nn: lstm input has %d elements, want %d", x.Len(), w.Input)
	}
	if st.H == nil || st.C == nil || st.H.Len() != w.Hidden || st.C.Len() != w.Hidden {
		return LSTMState{}, fmt.Errorf("nn: lstm state must have hidden size %d", w.Hidden)
	}
	gate := func(wx, uh, b *tensor.Tensor) (*tensor.Tensor, error) {
		xw, err := MatVec(wx, x, w.Hidden, w.Input)
		if err != nil {
			return nil, err
		}
		hw, err := MatVec(uh, st.H, w.Hidden, w.Hidden)
		if err != nil {
			return nil, err
		}
		sum, err := EltwiseAdd(xw, hw)
		if err != nil {
			return nil, err
		}
		return EltwiseAdd(sum, b)
	}
	pi, err := gate(w.Wi, w.Ui, w.Bi)
	if err != nil {
		return LSTMState{}, err
	}
	pf, err := gate(w.Wf, w.Uf, w.Bf)
	if err != nil {
		return LSTMState{}, err
	}
	po, err := gate(w.Wo, w.Uo, w.Bo)
	if err != nil {
		return LSTMState{}, err
	}
	pc, err := gate(w.Wc, w.Uc, w.Bc)
	if err != nil {
		return LSTMState{}, err
	}
	i := Sigmoid(pi)
	f := Sigmoid(pf)
	o := Sigmoid(po)
	g := Tanh(pc)

	fc, err := EltwiseMul(f, st.C)
	if err != nil {
		return LSTMState{}, err
	}
	ig, err := EltwiseMul(i, g)
	if err != nil {
		return LSTMState{}, err
	}
	newC, err := EltwiseAdd(fc, ig)
	if err != nil {
		return LSTMState{}, err
	}
	newH, err := EltwiseMul(o, Tanh(newC))
	if err != nil {
		return LSTMState{}, err
	}
	return LSTMState{H: newH, C: newC}, nil
}

// GRUWeights holds the gate parameters of one GRU layer.  Gate order: reset,
// update, candidate.
type GRUWeights struct {
	Hidden int
	Input  int

	Wr, Wz, Wh *tensor.Tensor // (hidden x input)
	Ur, Uz, Uh *tensor.Tensor // (hidden x hidden)
	Br, Bz, Bh *tensor.Tensor // (hidden)
}

// GRUParams is the GRU's parameter table, laid out as LSTMParams in gate
// order r, z, h.
var GRUParams = [...]Param[GRUWeights]{
	{"Wr", InputMatrix, func(w *GRUWeights) **tensor.Tensor { return &w.Wr }},
	{"Wz", InputMatrix, func(w *GRUWeights) **tensor.Tensor { return &w.Wz }},
	{"Wh", InputMatrix, func(w *GRUWeights) **tensor.Tensor { return &w.Wh }},
	{"Ur", RecurrentMatrix, func(w *GRUWeights) **tensor.Tensor { return &w.Ur }},
	{"Uz", RecurrentMatrix, func(w *GRUWeights) **tensor.Tensor { return &w.Uz }},
	{"Uh", RecurrentMatrix, func(w *GRUWeights) **tensor.Tensor { return &w.Uh }},
	{"Br", Bias, func(w *GRUWeights) **tensor.Tensor { return &w.Br }},
	{"Bz", Bias, func(w *GRUWeights) **tensor.Tensor { return &w.Bz }},
	{"Bh", Bias, func(w *GRUWeights) **tensor.Tensor { return &w.Bh }},
}

// Validate checks all weight shapes.
func (w *GRUWeights) Validate() error {
	return validateCell("gru", w, w.Hidden, w.Input, GRUParams[:])
}

// GRUCell advances the GRU by one time step with input x and hidden state h,
// returning the new hidden state.
//
//	r = sigmoid(Wr*x + Ur*h + br)
//	z = sigmoid(Wz*x + Uz*h + bz)
//	n = tanh(Wh*x + Uh*(r.*h) + bh)
//	h' = (1-z).*n + z.*h
func GRUCell(w *GRUWeights, h *tensor.Tensor, x *tensor.Tensor) (*tensor.Tensor, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if x.Len() != w.Input {
		return nil, fmt.Errorf("nn: gru input has %d elements, want %d", x.Len(), w.Input)
	}
	if h == nil || h.Len() != w.Hidden {
		return nil, fmt.Errorf("nn: gru state must have hidden size %d", w.Hidden)
	}
	lin := func(wx, uh, b *tensor.Tensor, hv *tensor.Tensor) (*tensor.Tensor, error) {
		xw, err := MatVec(wx, x, w.Hidden, w.Input)
		if err != nil {
			return nil, err
		}
		hw, err := MatVec(uh, hv, w.Hidden, w.Hidden)
		if err != nil {
			return nil, err
		}
		sum, err := EltwiseAdd(xw, hw)
		if err != nil {
			return nil, err
		}
		return EltwiseAdd(sum, b)
	}
	pr, err := lin(w.Wr, w.Ur, w.Br, h)
	if err != nil {
		return nil, err
	}
	pz, err := lin(w.Wz, w.Uz, w.Bz, h)
	if err != nil {
		return nil, err
	}
	r := Sigmoid(pr)
	z := Sigmoid(pz)

	rh, err := EltwiseMul(r, h)
	if err != nil {
		return nil, err
	}
	pn, err := lin(w.Wh, w.Uh, w.Bh, rh)
	if err != nil {
		return nil, err
	}
	n := Tanh(pn)

	out := tensor.New(w.Hidden)
	for i := 0; i < w.Hidden; i++ {
		zi := z.Data()[i]
		out.Data()[i] = float32((1-zi)*n.Data()[i]) + float32(zi*h.Data()[i])
	}
	return out, nil
}
