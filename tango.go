// Package tango is the public API of the Tango deep-neural-network benchmark
// suite reproduction: seven DNN inference workloads (CifarNet, AlexNet,
// SqueezeNet, ResNet-50, VGGNet-16, GRU and LSTM) expressed as fundamental
// math kernels, a cycle-approximate GPU architecture simulator with
// configurable caches and warp schedulers, GPU and FPGA power models, an
// experiment harness that regenerates every table and figure of the paper's
// evaluation, and a multi-device sweep engine (Sweep) that characterizes the
// suite across the registered accelerator targets (Targets) from shared
// layer traces.
//
// Typical use:
//
//	suite := tango.NewSuite()
//	b, _ := suite.Benchmark("CifarNet")
//	class, probs, _ := b.ClassifySample(42)
//	sim, _ := b.Simulate(tango.WithL1SizeKB(128), tango.WithScheduler("lrr"))
//	fmt.Println(class, probs[class], sim.Cycles)
//
//	table, _ := tango.RunExperiment("fig2", tango.WithFastSampling())
//	fmt.Println(table)
package tango

import (
	"fmt"

	"tango/internal/core"
	"tango/internal/networks"
)

// Benchmarks returns the names of the seven workloads in suite order.
func Benchmarks() []string { return networks.Names() }

// RNNBenchmarks returns the recurrent workloads.
func RNNBenchmarks() []string { return networks.RNNNames() }

// Suite loads and caches benchmarks.
type Suite struct {
	inner *core.Suite
}

// NewSuite returns an empty suite; benchmarks are built lazily on first use.
func NewSuite() *Suite { return &Suite{inner: core.NewSuite()} }

// Benchmark returns the named workload, building its network, weights and
// kernels on first use.
func (s *Suite) Benchmark(name string) (*Benchmark, error) {
	b, err := s.inner.Benchmark(name)
	if err != nil {
		return nil, err
	}
	return &Benchmark{inner: b}, nil
}

// Benchmark is one workload of the suite.
type Benchmark struct {
	inner *core.Benchmark
}

// LoadBenchmark builds a single workload without a Suite.
func LoadBenchmark(name string) (*Benchmark, error) {
	b, err := core.Load(name)
	if err != nil {
		return nil, err
	}
	return &Benchmark{inner: b}, nil
}

// Name returns the benchmark name.
func (b *Benchmark) Name() string { return b.inner.Name() }

// Kind returns "CNN" or "RNN".
func (b *Benchmark) Kind() string { return b.inner.Kind().String() }

// Description summarizes a benchmark's structure and footprint.
type Description struct {
	// Name and Kind identify the workload.
	Name string
	Kind string
	// InputShape is the per-inference input tensor shape (CHW for CNNs,
	// feature count per time step for RNNs).
	InputShape []int
	// Classes is the classifier width (0 for regression outputs).
	Classes int
	// Layers is the number of layers / kernels.
	Layers int
	// Parameters is the number of trainable parameters.
	Parameters int64
	// WeightBytes and ActivationBytes are the device-memory demands.
	WeightBytes     int64
	ActivationBytes int64
}

// Describe returns the benchmark's structural summary.
func (b *Benchmark) Describe() (Description, error) {
	n := b.inner.Network
	specs, err := n.WeightSpecs()
	if err != nil {
		return Description{}, err
	}
	var params int64
	for _, s := range specs {
		params += int64(s.Count)
	}
	wb, err := n.WeightBytes()
	if err != nil {
		return Description{}, err
	}
	ab, err := n.ActivationBytes()
	if err != nil {
		return Description{}, err
	}
	classes := n.NumClasses
	return Description{
		Name:            n.Name,
		Kind:            n.Kind.String(),
		InputShape:      n.InputShape,
		Classes:         classes,
		Layers:          len(n.Layers),
		Parameters:      params,
		WeightBytes:     wb,
		ActivationBytes: ab,
	}, nil
}

// Layers returns the layer names in execution order.
func (b *Benchmark) Layers() []string {
	out := make([]string, len(b.inner.Network.Layers))
	for i := range b.inner.Network.Layers {
		out[i] = b.inner.Network.Layers[i].Name
	}
	return out
}

// ensureKind verifies the benchmark kind for inference helpers.
func (b *Benchmark) ensureKind(kind networks.Kind, op string) error {
	if b.inner.Kind() != kind {
		return fmt.Errorf("tango: %s is a %s benchmark; %s is not applicable", b.Name(), b.Kind(), op)
	}
	return nil
}
