// Package networks defines the seven DNN workloads of the Tango benchmark
// suite — CifarNet, AlexNet, SqueezeNet, ResNet-50, VGGNet-16 (CNNs) and GRU,
// LSTM (RNNs) — as explicit layer graphs with reference-model shapes, and
// provides a native inference runner that executes them with the fundamental
// math kernels in package nn.
package networks

import (
	"fmt"

	"tango/internal/nn"
	"tango/internal/tensor"
)

// Kind distinguishes convolutional from recurrent workloads.
type Kind uint8

// Workload kinds.
const (
	KindCNN Kind = iota
	KindRNN
)

// String returns "CNN" or "RNN".
func (k Kind) String() string {
	if k == KindRNN {
		return "RNN"
	}
	return "CNN"
}

// LayerType identifies the computation a layer performs.
type LayerType uint8

// Layer types used across the seven networks.
const (
	LayerConv LayerType = iota
	LayerPool
	LayerFC
	LayerLRN
	LayerBatchNorm
	LayerScale
	LayerReLU
	LayerEltwise
	LayerConcat
	LayerSoftmax
	LayerGlobalPool
	LayerLSTM
	LayerGRU
	// NumLayerTypes is the number of defined layer types.
	NumLayerTypes
)

var layerTypeNames = [NumLayerTypes]string{
	LayerConv:       "conv",
	LayerPool:       "pool",
	LayerFC:         "fc",
	LayerLRN:        "norm",
	LayerBatchNorm:  "batchnorm",
	LayerScale:      "scale",
	LayerReLU:       "relu",
	LayerEltwise:    "eltwise",
	LayerConcat:     "concat",
	LayerSoftmax:    "softmax",
	LayerGlobalPool: "globalpool",
	LayerLSTM:       "lstm",
	LayerGRU:        "gru",
}

// String returns the lower-case layer type name.
func (t LayerType) String() string {
	if int(t) < len(layerTypeNames) {
		return layerTypeNames[t]
	}
	return fmt.Sprintf("layer(%d)", uint8(t))
}

// Reporting classes used by the paper's per-layer-type breakdowns
// (Figures 1, 4, 7, 13, 14).
const (
	ClassConv        = "Conv"
	ClassPooling     = "Pooling"
	ClassFC          = "FC"
	ClassNorm        = "Norm"
	ClassFireSqueeze = "Fire_Squeeze"
	ClassFireExpand  = "Fire_Expand"
	ClassReLU        = "Relu"
	ClassScale       = "Scale"
	ClassEltwise     = "Eltwise"
	ClassBatchNorm   = "BatchNorm"
	ClassRNN         = "RNN"
	ClassOther       = "Others"
)

// InputRef marks a layer input that reads the network input tensor rather
// than another layer's output.
const InputRef = -1

// Layer is one node of a network graph.  Exactly the fields relevant to its
// Type are meaningful.
type Layer struct {
	// Name is unique within the network (e.g. "conv1", "fire2/squeeze1x1").
	Name string
	// Type selects the computation.
	Type LayerType
	// Class is the reporting group used by the paper's figures; empty means
	// derive it from Type.
	Class string
	// Inputs are indices of producer layers in Network.Layers, or InputRef.
	Inputs []int

	// Conv holds parameters for LayerConv.
	Conv nn.ConvParams
	// Pool holds parameters for LayerPool.
	Pool nn.PoolParams
	// FCOut is the output feature count for LayerFC.
	FCOut int
	// LRN holds parameters for LayerLRN.
	LRN nn.LRNParams
	// FusedReLU applies a ReLU to the layer output in the same kernel
	// (conv+relu and fc+relu fusion used by most of the networks).
	FusedReLU bool

	// Hidden and InSize configure LayerLSTM / LayerGRU.
	Hidden int
	InSize int

	// OutShape is computed by Network.Build.
	OutShape []int
}

// EffectiveClass returns the reporting class, deriving it from the layer type
// when Class is unset.
func (l *Layer) EffectiveClass() string {
	if l.Class != "" {
		return l.Class
	}
	switch l.Type {
	case LayerConv:
		return ClassConv
	case LayerPool, LayerGlobalPool:
		return ClassPooling
	case LayerFC:
		return ClassFC
	case LayerLRN:
		return ClassNorm
	case LayerBatchNorm:
		return ClassBatchNorm
	case LayerScale:
		return ClassScale
	case LayerReLU:
		return ClassReLU
	case LayerEltwise:
		return ClassEltwise
	case LayerLSTM, LayerGRU:
		return ClassRNN
	default:
		return ClassOther
	}
}

// Network is a complete workload: an input shape, a layer graph and, for
// RNNs, the sequence length.
type Network struct {
	// Name is the benchmark name, e.g. "AlexNet".
	Name string
	// Kind is CNN or RNN.
	Kind Kind
	// InputShape is CHW for CNNs and [features] per time step for RNNs.
	InputShape []int
	// NumClasses is the classifier output width (CNNs).
	NumClasses int
	// SeqLen is the number of time steps an RNN processes.
	SeqLen int
	// Layers is the topologically ordered layer graph.
	Layers []Layer

	built bool
}

// Built reports whether Build has completed successfully.
func (n *Network) Built() bool { return n.built }

// Layer returns the layer with the given name, or nil.
func (n *Network) Layer(name string) *Layer {
	for i := range n.Layers {
		if n.Layers[i].Name == name {
			return &n.Layers[i]
		}
	}
	return nil
}

// inputShapeOf resolves the output shape feeding input slot idx of layer li.
func (n *Network) inputShapeOf(li, idx int) ([]int, error) {
	ref := n.Layers[li].Inputs[idx]
	if ref == InputRef {
		return n.InputShape, nil
	}
	if ref < 0 || ref >= li {
		return nil, fmt.Errorf("networks: layer %q input %d references layer %d (must precede it)", n.Layers[li].Name, idx, ref)
	}
	return n.Layers[ref].OutShape, nil
}

// Build validates the graph and computes every layer's output shape.  It must
// be called (directly or via the constructors) before Run or WeightSpecs.
func (n *Network) Build() error {
	if len(n.InputShape) == 0 {
		return fmt.Errorf("networks: %s has no input shape", n.Name)
	}
	seen := make(map[string]bool, len(n.Layers))
	for li := range n.Layers {
		l := &n.Layers[li]
		if l.Name == "" {
			return fmt.Errorf("networks: %s layer %d has no name", n.Name, li)
		}
		if seen[l.Name] {
			return fmt.Errorf("networks: %s has duplicate layer name %q", n.Name, l.Name)
		}
		seen[l.Name] = true
		if len(l.Inputs) == 0 {
			return fmt.Errorf("networks: layer %q has no inputs", l.Name)
		}
		in0, err := n.inputShapeOf(li, 0)
		if err != nil {
			return err
		}
		switch l.Type {
		case LayerConv:
			if len(in0) != 3 {
				return fmt.Errorf("networks: conv layer %q needs CHW input, got %v", l.Name, in0)
			}
			if err := l.Conv.Validate(); err != nil {
				return fmt.Errorf("layer %q: %w", l.Name, err)
			}
			if l.Conv.InChannels != in0[0] {
				return fmt.Errorf("networks: conv layer %q expects %d channels, input has %d", l.Name, l.Conv.InChannels, in0[0])
			}
			h, w := l.Conv.OutputDims(in0[1], in0[2])
			if h <= 0 || w <= 0 {
				return fmt.Errorf("networks: conv layer %q output %dx%d not positive", l.Name, h, w)
			}
			l.OutShape = []int{l.Conv.OutChannels, h, w}
		case LayerPool:
			if len(in0) != 3 {
				return fmt.Errorf("networks: pool layer %q needs CHW input, got %v", l.Name, in0)
			}
			if err := l.Pool.Validate(); err != nil {
				return fmt.Errorf("layer %q: %w", l.Name, err)
			}
			h, w := l.Pool.OutputDims(in0[1], in0[2])
			if h <= 0 || w <= 0 {
				return fmt.Errorf("networks: pool layer %q output %dx%d not positive", l.Name, h, w)
			}
			l.OutShape = []int{in0[0], h, w}
		case LayerFC:
			if l.FCOut <= 0 {
				return fmt.Errorf("networks: fc layer %q needs positive output size", l.Name)
			}
			l.OutShape = []int{l.FCOut}
		case LayerLRN:
			if err := l.LRN.Validate(); err != nil {
				return fmt.Errorf("layer %q: %w", l.Name, err)
			}
			l.OutShape = append([]int(nil), in0...)
		case LayerBatchNorm, LayerScale, LayerReLU, LayerSoftmax:
			l.OutShape = append([]int(nil), in0...)
		case LayerEltwise:
			if len(l.Inputs) != 2 {
				return fmt.Errorf("networks: eltwise layer %q needs exactly 2 inputs", l.Name)
			}
			in1, err := n.inputShapeOf(li, 1)
			if err != nil {
				return err
			}
			if !equalShape(in0, in1) {
				return fmt.Errorf("networks: eltwise layer %q input shapes differ: %v vs %v", l.Name, in0, in1)
			}
			l.OutShape = append([]int(nil), in0...)
		case LayerConcat:
			if len(in0) != 3 {
				return fmt.Errorf("networks: concat layer %q needs CHW inputs", l.Name)
			}
			c := 0
			for idx := range l.Inputs {
				s, err := n.inputShapeOf(li, idx)
				if err != nil {
					return err
				}
				if len(s) != 3 || s[1] != in0[1] || s[2] != in0[2] {
					return fmt.Errorf("networks: concat layer %q spatial mismatch: %v vs %v", l.Name, s, in0)
				}
				c += s[0]
			}
			l.OutShape = []int{c, in0[1], in0[2]}
		case LayerGlobalPool:
			if len(in0) != 3 {
				return fmt.Errorf("networks: global pool layer %q needs CHW input", l.Name)
			}
			l.OutShape = []int{in0[0]}
		case LayerLSTM, LayerGRU:
			if l.Hidden <= 0 || l.InSize <= 0 {
				return fmt.Errorf("networks: recurrent layer %q needs positive hidden/input sizes", l.Name)
			}
			l.OutShape = []int{l.Hidden}
		default:
			return fmt.Errorf("networks: layer %q has unknown type %d", l.Name, l.Type)
		}
	}
	n.built = true
	return nil
}

func equalShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// elems returns the element count of a shape.
func elems(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// WeightSpec names one parameter tensor a layer requires.
type WeightSpec struct {
	// Layer is the owning layer name.
	Layer string
	// Param is the parameter role, e.g. "weights", "bias", "gamma", "Wi".
	Param string
	// Count is the number of float32 elements.
	Count int
}

// Key returns the canonical "layer/param" identifier of the parameter.
func (w WeightSpec) Key() string { return w.Layer + "/" + w.Param }

// WeightSpecs enumerates every parameter tensor the network needs, in layer
// order.  Build must have been called.
func (n *Network) WeightSpecs() ([]WeightSpec, error) {
	if !n.built {
		return nil, fmt.Errorf("networks: %s: WeightSpecs before Build", n.Name)
	}
	var specs []WeightSpec
	add := func(layer, param string, count int) {
		specs = append(specs, WeightSpec{Layer: layer, Param: param, Count: count})
	}
	for li := range n.Layers {
		l := &n.Layers[li]
		switch l.Type {
		case LayerConv:
			add(l.Name, "weights", l.Conv.WeightCount())
			add(l.Name, "bias", l.Conv.OutChannels)
		case LayerFC:
			in, err := n.inputShapeOf(li, 0)
			if err != nil {
				return nil, err
			}
			add(l.Name, "weights", l.FCOut*elems(in))
			add(l.Name, "bias", l.FCOut)
		case LayerBatchNorm:
			c := l.OutShape[0]
			add(l.Name, "mean", c)
			add(l.Name, "variance", c)
		case LayerScale:
			c := l.OutShape[0]
			add(l.Name, "gamma", c)
			add(l.Name, "beta", c)
		case LayerLSTM:
			for _, p := range nn.LSTMParams {
				add(l.Name, p.Name, p.Count(l.Hidden, l.InSize))
			}
		case LayerGRU:
			for _, p := range nn.GRUParams {
				add(l.Name, p.Name, p.Count(l.Hidden, l.InSize))
			}
		}
	}
	return specs, nil
}

// WeightBytes returns the total parameter footprint in bytes.
func (n *Network) WeightBytes() (int64, error) {
	specs, err := n.WeightSpecs()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range specs {
		total += int64(s.Count) * 4
	}
	return total, nil
}

// ActivationBytes returns the total bytes of all layer outputs for one
// inference (every activation is materialized once, as the benchmark kernels
// do with per-layer device buffers).
func (n *Network) ActivationBytes() (int64, error) {
	if !n.built {
		return 0, fmt.Errorf("networks: %s: ActivationBytes before Build", n.Name)
	}
	total := int64(elems(n.InputShape)) * 4
	if n.Kind == KindRNN {
		total *= int64(max(n.SeqLen, 1))
	}
	for i := range n.Layers {
		total += int64(elems(n.Layers[i].OutShape)) * 4
	}
	return total, nil
}

// Weights supplies parameter tensors to the inference runner.
type Weights interface {
	// Get returns the parameter tensor for layer/param with exactly count
	// elements.
	Get(layer, param string, count int) (*tensor.Tensor, error)
}
