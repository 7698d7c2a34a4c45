// Package weights synthesizes and stores the per-layer parameter tensors of
// the benchmark networks.
//
// The original benchmark suite ships pre-trained Caffe/Keras model files
// partitioned into per-layer weight blobs (Table I).  Those proprietary blobs
// are not redistributable here, so this package generates deterministic
// synthetic parameters with the exact shapes of the reference models: the
// architectural behaviour the paper characterizes (instruction mix, memory
// traffic, footprints) depends on tensor shapes and layer structure, not on
// the trained values.
package weights

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/tensor"
)

// Set holds named parameter tensors for one network.  It implements
// networks.Weights.
type Set struct {
	network string

	mu      sync.Mutex
	tensors map[string]*tensor.Tensor
}

var _ networks.Weights = (*Set)(nil)

// NewSet returns an empty parameter set for the named network.
func NewSet(network string) *Set {
	return &Set{network: network, tensors: make(map[string]*tensor.Tensor)}
}

// Network returns the owning network name.
func (s *Set) Network() string { return s.network }

// Put stores a tensor under layer/param, replacing any previous value.
func (s *Set) Put(layer, param string, t *tensor.Tensor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tensors[layer+"/"+param] = t
}

// Get returns the tensor for layer/param and validates its element count.
// It satisfies networks.Weights.
func (s *Set) Get(layer, param string, count int) (*tensor.Tensor, error) {
	s.mu.Lock()
	t, ok := s.tensors[layer+"/"+param]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("weights: %s: no parameter %s/%s", s.network, layer, param)
	}
	if t.Len() != count {
		return nil, fmt.Errorf("weights: %s: parameter %s/%s has %d elements, want %d",
			s.network, layer, param, t.Len(), count)
	}
	return t, nil
}

// Keys returns the sorted parameter keys present in the set.
func (s *Set) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.tensors))
	for k := range s.tensors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TotalBytes returns the total parameter storage in bytes.
func (s *Set) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, t := range s.tensors {
		total += t.Bytes()
	}
	return total
}

// Synthesize generates a full deterministic parameter set for the network.
// The same network always produces bit-identical parameters, and every
// layer's values depend only on the network name and the parameter key, so
// adding layers does not perturb existing ones.
func Synthesize(n *networks.Network) (*Set, error) {
	specs, err := n.WeightSpecs()
	if err != nil {
		return nil, err
	}
	s := NewSet(n.Name)
	for _, spec := range specs {
		t := tensor.New(spec.Count)
		fillParam(t, n.Name, spec)
		s.Put(spec.Layer, spec.Param, t)
	}
	return s, nil
}

// fillParam fills one parameter tensor with values appropriate to its role.
func fillParam(t *tensor.Tensor, network string, spec networks.WeightSpec) {
	seed := keySeed(network + ":" + spec.Key())
	r := tensor.NewRNG(seed)
	switch name := spec.Param; {
	case name == "bias" || name == "beta" || name == "mean" ||
		cellBias(nn.LSTMParams[:], name) || cellBias(nn.GRUParams[:], name):
		// Small offsets around zero.
		t.FillNormal(r, 0.01)
	case name == "variance":
		// Positive variances around one.
		for i := range t.Data() {
			v := 0.5 + r.Float32()
			t.Data()[i] = v
		}
	case name == "gamma":
		// Scales around one.
		for i := range t.Data() {
			t.Data()[i] = 0.9 + float32(0.2*r.Float32())
		}
	default:
		// Filter / matrix weights: Xavier-style scaling keeps activations in
		// a numerically reasonable range through deep networks.  A uniform
		// distribution with matched variance is used because the largest
		// models carry >100M parameters and generation cost matters.
		std := math.Sqrt(2.0 / float64(fanIn(spec.Count)))
		half := float32(std * math.Sqrt(3.0))
		t.FillUniform(r, -half, half)
	}
}

// cellBias reports whether name is a bias row of a recurrent cell's
// parameter table.
func cellBias[W any](params []nn.Param[W], name string) bool {
	for _, p := range params {
		if p.Name == name && p.Shape == nn.Bias {
			return true
		}
	}
	return false
}

// fanIn approximates the fan-in of a weight tensor from its element count.
func fanIn(count int) int {
	if count < 16 {
		return count + 1
	}
	// Treat the tensor as square-ish; this only needs to be a stable,
	// order-of-magnitude-correct scale factor.
	return int(math.Sqrt(float64(count))) + 1
}

// keySeed derives a stable 64-bit seed from a parameter key.
func keySeed(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}
