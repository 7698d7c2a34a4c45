package nn

import (
	"fmt"
	"math"

	"tango/internal/tensor"
)

// ReLU returns a new tensor with the negative elements of input replaced by
// +0 (tensor.ReLU, the one kernel of every ReLU here, has the contract for
// -0 and NaN).  The paper's Observation 8 notes that ReLU's zeroing is one
// reason integer pipelines see heavy use even in floating-point networks.
func ReLU(input *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(input.Shape()...)
	tensor.ReLU(out.Data(), input.Data())
	return out
}

// ReLUInPlace is ReLU written over its input, matching the fused behaviour
// of the conv+relu kernels.
func ReLUInPlace(t *tensor.Tensor) {
	tensor.ReLU(t.Data(), t.Data())
}

// Sigmoid applies the logistic function element-wise.
func Sigmoid(input *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(input.Shape()...)
	for i, v := range input.Data() {
		out.Data()[i] = float32(1.0 / (1.0 + math.Exp(-float64(v))))
	}
	return out
}

// Tanh applies the hyperbolic tangent element-wise.
func Tanh(input *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(input.Shape()...)
	for i, v := range input.Data() {
		out.Data()[i] = float32(math.Tanh(float64(v)))
	}
	return out
}

// checkEltwiseArgs validates an element-wise binary op.
func checkEltwiseArgs(op string, a, b *tensor.Tensor) error {
	if a == nil || b == nil {
		return fmt.Errorf("nn: eltwise %s: %w: nil input", op, tensor.ErrShape)
	}
	if !tensor.SameShape(a, b) {
		return fmt.Errorf("%w: eltwise %s %v vs %v", tensor.ErrShape, op, a.Shape(), b.Shape())
	}
	return nil
}

// EltwiseAdd returns a + b element-wise; the tensors must share a shape.
// ResNet shortcut connections use it.
func EltwiseAdd(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	return NewScratch().EltwiseAdd(a, b)
}

// EltwiseMul returns a * b element-wise; the tensors must share a shape.
// The LSTM and GRU gate equations use it.
func EltwiseMul(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkEltwiseArgs("mul", a, b); err != nil {
		return nil, err
	}
	out := tensor.New(a.Shape()...)
	ad, bd, od := a.Data(), b.Data(), out.Data()
	for i := range ad {
		od[i] = ad[i] * bd[i]
	}
	return out, nil
}
