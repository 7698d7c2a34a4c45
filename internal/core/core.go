// Package core ties the Tango benchmark suite's native side together: it
// couples each of the seven networks with its synthesized weights, provides
// the native inference entry points, and supplies deterministic sample
// inputs standing in for the suite's reference images and price series
// (Table I).  Simulation lowers networks through internal/target instead.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/tensor"
	"tango/internal/weights"
)

// Benchmark is one workload of the suite, ready to run natively.
type Benchmark struct {
	// Network is the layer graph with reference shapes.
	Network *networks.Network
	// Weights is the synthesized parameter set.
	Weights *weights.Set

	// planOnce resolves the weight plan for the native compute engine on
	// first use; the plan is immutable and shared by all runs.  planReady
	// lets accounting observe whether the plan exists without building it.
	planOnce  sync.Once
	plan      *networks.Plan
	planErr   error
	planReady atomic.Bool
	// scratch pools per-goroutine compute engine state so steady-state
	// inference reuses its buffers.
	scratch sync.Pool
	// scratchHW tracks the largest single-scratch footprint ever released
	// back to the pool: the high-water mark of the compute engine's
	// per-goroutine working set, reported through MemStats.
	scratchHW atomic.Int64
}

// Name returns the benchmark name.
func (b *Benchmark) Name() string { return b.Network.Name }

// Kind returns CNN or RNN.
func (b *Benchmark) Kind() networks.Kind { return b.Network.Kind }

// Load builds one benchmark by name.
func Load(name string) (*Benchmark, error) {
	n, err := networks.New(name)
	if err != nil {
		return nil, err
	}
	ws, err := weights.Synthesize(n)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	return &Benchmark{Network: n, Weights: ws}, nil
}

// SampleInput returns a deterministic synthetic input image for a CNN
// benchmark, standing in for the reference inputs of Table I (cat image,
// speed-limit sign, killer whale).
func (b *Benchmark) SampleInput(seed uint64) (*tensor.Tensor, error) {
	if b.Network.Kind != networks.KindCNN {
		return nil, fmt.Errorf("core: %s is an RNN; use SampleSequence", b.Name())
	}
	in := tensor.New(b.Network.InputShape...)
	in.FillUniform(tensor.NewRNG(seed^0x7A4C0), 0, 1)
	return in, nil
}

// SampleSequence returns a deterministic synthetic price sequence for an RNN
// benchmark, standing in for the bitcoin price history of Table I.
func (b *Benchmark) SampleSequence(seed uint64) ([]*tensor.Tensor, error) {
	if b.Network.Kind != networks.KindRNN {
		return nil, fmt.Errorf("core: %s is a CNN; use SampleInput", b.Name())
	}
	r := tensor.NewRNG(seed ^ 0xB17C01)
	steps := b.Network.SeqLen
	if steps <= 0 {
		steps = 2
	}
	seq := make([]*tensor.Tensor, steps)
	price := 0.4 + float32(0.2*r.Float32())
	for i := range seq {
		x := tensor.New(b.Network.InputShape...)
		// A normalized random walk, like scaled daily closing prices.
		price += float32((r.Float32() - 0.5) * 0.05)
		x.Fill(price)
		seq[i] = x
	}
	return seq, nil
}

// Plan returns the benchmark's resolved execution plan for the native
// compute engine, building it on first use.
func (b *Benchmark) Plan() (*networks.Plan, error) {
	b.planOnce.Do(func() {
		b.plan = nil
		b.plan, b.planErr = b.Network.NewPlan(b.Weights)
		b.planReady.Store(true)
	})
	return b.plan, b.planErr
}

// AcquireScratchNumerics returns a pooled compute-engine scratch configured
// for the given worker count and numerics tier; every configurable scratch
// knob is reset so a pooled scratch never leaks a previous caller's mode.
// Release it with ReleaseScratch once every tensor of the run's Result has
// been consumed: results produced with a scratch alias its arena and are
// overwritten by the next run that reuses it.
func (b *Benchmark) AcquireScratchNumerics(workers int, mode nn.Numerics) *nn.Scratch {
	s, ok := b.scratch.Get().(*nn.Scratch)
	if !ok {
		s = nn.NewScratch()
	}
	s.SetWorkers(workers)
	s.SetDirect(false)
	s.SetNumerics(mode)
	return s
}

// ReleaseScratch returns a scratch to the benchmark's pool.
func (b *Benchmark) ReleaseScratch(s *nn.Scratch) {
	if s != nil {
		if n := s.Bytes(); n > b.scratchHW.Load() {
			// Racy max is fine: a lost update is one release's worth of
			// under-reporting, corrected by the next release at that size.
			b.scratchHW.Store(n)
		}
		b.scratch.Put(s)
	}
}

// MemStats is a benchmark's resident-memory breakdown, the accounting
// surface behind per-model memory budgets and the resident-bytes series on
// /metrics.
type MemStats struct {
	// WeightBytes is the synthesized parameter footprint.
	WeightBytes int64 `json:"weight_bytes"`
	// PackedBytes is the fast-tier weight panels built so far (zero under
	// the reference tier).
	PackedBytes int64 `json:"packed_bytes"`
	// ScratchBytes is the high-water footprint of one pooled compute
	// scratch (arena plus staging buffers); multi-worker engines resident
	// several scratches peak at a multiple of this.
	ScratchBytes int64 `json:"scratch_bytes"`
}

// Total returns the benchmark's total resident estimate.
func (m MemStats) Total() int64 { return m.WeightBytes + m.PackedBytes + m.ScratchBytes }

// MemStats reports the benchmark's current resident-memory breakdown.  The
// packed-panel term only counts tiers already packed; the scratch term is
// the per-goroutine high-water mark, so multi-worker servers see at least
// this much per concurrently running batch.
func (b *Benchmark) MemStats() MemStats {
	m := MemStats{ScratchBytes: b.scratchHW.Load()}
	if b.Weights != nil {
		m.WeightBytes = b.Weights.TotalBytes()
	}
	// Only an already-built plan contributes packs; don't force a build
	// just to report zero.
	if b.planReady.Load() {
		if p, err := b.Plan(); err == nil && p != nil {
			m.PackedBytes = p.PackedBytes()
		}
	}
	return m
}

// RunInferenceScratch executes the CNN natively on the compute engine with
// the given scratch.  The Result's tensors alias the scratch arena (a nil
// scratch allocates them afresh).
func (b *Benchmark) RunInferenceScratch(input *tensor.Tensor, s *nn.Scratch) (*networks.Result, error) {
	p, err := b.Plan()
	if err != nil {
		return nil, err
	}
	return p.Run(input, s)
}

// RunSequenceScratch executes the RNN natively on the compute engine with
// the given scratch.  The Result's tensors alias the scratch arena.
func (b *Benchmark) RunSequenceScratch(seq []*tensor.Tensor, s *nn.Scratch) (*networks.Result, error) {
	p, err := b.Plan()
	if err != nil {
		return nil, err
	}
	return p.RunSequence(seq, s)
}

// RunBatchScratch executes the CNN natively over a rank-4 (N, C, H, W)
// batch on the compute engine with the given scratch, folding the batch into
// the GEMM dimensions for throughput.  The BatchResult's storage aliases the
// scratch.  Results are bit-identical to N single-sample runs.
func (b *Benchmark) RunBatchScratch(input *tensor.Tensor, s *nn.Scratch) (*networks.BatchResult, error) {
	p, err := b.Plan()
	if err != nil {
		return nil, err
	}
	return p.RunBatch(input, s)
}

// RunSequenceBatchScratch executes the RNN natively over a rank-3
// (steps, N, features) batch of equal-length sequences with the given
// scratch.  The BatchResult's storage aliases the scratch.
func (b *Benchmark) RunSequenceBatchScratch(seq *tensor.Tensor, s *nn.Scratch) (*networks.BatchResult, error) {
	p, err := b.Plan()
	if err != nil {
		return nil, err
	}
	return p.RunSequenceBatch(seq, s)
}

// ReferenceInput documents the input, pre-trained model and output of each
// benchmark, reproducing Table I of the paper.
type ReferenceInput struct {
	Network    string
	InputData  string
	Pretrained string
	Output     string
}

// ReferenceInputs returns the Table I entries in suite order.
func ReferenceInputs() []ReferenceInput {
	return []ReferenceInput{
		{"GRU", "Bitcoin stock price values of past two days (scaled)",
			"Trained on the Kaggle bitcoin price prediction dataset (synthetic stand-in)",
			"Projected next stock price"},
		{"LSTM", "Bitcoin stock price values of past two days (scaled)",
			"Trained on the Kaggle bitcoin price prediction dataset (synthetic stand-in)",
			"Projected next stock price"},
		{"CifarNet", "Speed limit 35 sign image (3x32x32)",
			"Traffic-signal model, 9 classes (synthetic stand-in)",
			"Confidence level for all 9 classes"},
		{"AlexNet", "Cat image (3x227x227)",
			"BVLC reference AlexNet, 1000 ImageNet classes (synthetic stand-in)",
			"Recognized class id"},
		{"SqueezeNet", "Cat image (3x227x227)",
			"SqueezeNet v1.0, 1000 ImageNet classes (synthetic stand-in)",
			"Recognized class id"},
		{"ResNet", "Cat image (3x224x224)",
			"ResNet-50 (MSRA), 1000 ImageNet classes (synthetic stand-in)",
			"Recognized class id"},
		{"VGGNet", "Killer whale image (3x224x224)",
			"VGG-16 (Oxford), 1000 ImageNet classes (synthetic stand-in)",
			"Recognized class id"},
	}
}

// Suite lazily loads and caches the seven benchmarks.
type Suite struct {
	mu    sync.Mutex
	cache map[string]*Benchmark
}

// NewSuite returns an empty suite.
func NewSuite() *Suite {
	return &Suite{cache: make(map[string]*Benchmark)}
}

// Benchmark returns the named benchmark, loading it on first use.
func (s *Suite) Benchmark(name string) (*Benchmark, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.cache[name]; ok {
		return b, nil
	}
	b, err := Load(name)
	if err != nil {
		return nil, err
	}
	s.cache[name] = b
	return b, nil
}
