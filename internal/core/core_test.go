package core_test

import (
	"math"
	"testing"

	"tango/internal/core"
	"tango/internal/gpusim"
	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/resilience"
)

func TestLoadBenchmark(t *testing.T) {
	b, err := core.Load("CifarNet")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "CifarNet" || b.Kind() != networks.KindCNN {
		t.Errorf("unexpected identity: %s %v", b.Name(), b.Kind())
	}
	if len(b.Kernels) != len(b.Network.Layers) {
		t.Errorf("kernels %d, layers %d", len(b.Kernels), len(b.Network.Layers))
	}
	if b.Weights == nil || len(b.Weights.Keys()) == 0 {
		t.Error("weights should be synthesized")
	}
	if _, err := core.Load("NoSuchNet"); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestSampleInputAndInference(t *testing.T) {
	b, err := core.Load("CifarNet")
	if err != nil {
		t.Fatal(err)
	}
	in, err := b.SampleInput(1)
	if err != nil {
		t.Fatal(err)
	}
	if in.Len() != 3*32*32 {
		t.Errorf("sample input has %d elements", in.Len())
	}
	res, err := b.RunInferenceScratch(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedClass < 0 || res.PredictedClass >= 9 {
		t.Errorf("predicted class %d out of range", res.PredictedClass)
	}
	// Determinism of sample inputs.
	in2, err := b.SampleInput(1)
	if err != nil {
		t.Fatal(err)
	}
	if in.Data()[0] != in2.Data()[0] {
		t.Error("sample inputs with the same seed must match")
	}
	in3, err := b.SampleInput(2)
	if err != nil {
		t.Fatal(err)
	}
	if in.Data()[0] == in3.Data()[0] {
		t.Error("different seeds should give different inputs")
	}
	if _, err := b.SampleSequence(1); err == nil {
		t.Error("SampleSequence on a CNN should fail")
	}
}

func TestSampleSequenceAndRNNInference(t *testing.T) {
	b, err := core.Load("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := b.SampleSequence(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2 {
		t.Errorf("sequence length %d, want 2", len(seq))
	}
	res, err := b.RunSequenceScratch(seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Len() != 1 {
		t.Errorf("RNN output length %d, want 1", res.Output.Len())
	}
	if _, err := b.SampleInput(1); err == nil {
		t.Error("SampleInput on an RNN should fail")
	}
}

func TestBenchmarkSimulate(t *testing.T) {
	b, err := core.Load("GRU")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := b.Simulate(gpusim.DefaultConfig().WithSampling(gpusim.FastSampling()))
	if err != nil {
		t.Fatal(err)
	}
	if rs.TotalCycles() <= 0 || len(rs.Kernels) != len(b.Kernels) {
		t.Errorf("unexpected simulation result: %d cycles, %d kernels", rs.TotalCycles(), len(rs.Kernels))
	}
	if _, err := b.Simulate(gpusim.Config{}); err == nil {
		t.Error("invalid simulation config should fail")
	}
}

func TestReferenceInputsTableI(t *testing.T) {
	refs := core.ReferenceInputs()
	if len(refs) != 7 {
		t.Fatalf("Table I should list 7 networks, got %d", len(refs))
	}
	names := map[string]bool{}
	for _, r := range refs {
		names[r.Network] = true
		if r.InputData == "" || r.Pretrained == "" || r.Output == "" {
			t.Errorf("%s: incomplete Table I entry", r.Network)
		}
	}
	for _, want := range networks.Names() {
		if !names[want] {
			t.Errorf("Table I missing %s", want)
		}
	}
}

func TestSuiteCaching(t *testing.T) {
	s := core.NewSuite()
	a, err := s.Benchmark("GRU")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Benchmark("GRU")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("suite should cache benchmarks")
	}
	if _, err := s.Benchmark("nope"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestSuiteAllLoadsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("loading all seven benchmarks skipped in -short mode")
	}
	s := core.NewSuite()
	for _, name := range networks.Names() {
		b, err := s.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != name {
			t.Errorf("Benchmark(%q) loaded %s", name, b.Name())
		}
		if again, _ := s.Benchmark(name); again != b {
			t.Errorf("%s: second Benchmark call loaded it again", name)
		}
	}
}

// TestEngineForksIgnoreTaskFaults pins that the compute engine's worker
// fan-out cannot drop work: under a plan that fails every par.task, a
// two-worker AlexNet run on a scratch that already holds another image's
// activations must still produce the one-worker bits.
func TestEngineForksIgnoreTaskFaults(t *testing.T) {
	b, err := core.Load("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	first, err := b.SampleInput(1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := b.SampleInput(2)
	if err != nil {
		t.Fatal(err)
	}
	serial := b.AcquireScratchNumerics(1, nn.NumericsReference)
	res, err := b.RunInferenceScratch(second, serial)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), res.Output.Data()...)
	b.ReleaseScratch(serial)

	s := b.AcquireScratchNumerics(2, nn.NumericsReference)
	if _, err := b.RunInferenceScratch(first, s); err != nil {
		t.Fatal(err)
	}
	if err := resilience.Enable("par.task=error:1", 1); err != nil {
		t.Fatal(err)
	}
	defer resilience.Disable()
	res, err = b.RunInferenceScratch(second, s)
	if err != nil {
		t.Fatalf("two-worker run under par.task faults: %v", err)
	}
	for i, v := range res.Output.Data() {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("output[%d] = %v at 2 workers under par.task faults, want the 1-worker %v", i, v, want[i])
		}
	}
}
