package tango_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"tango"
)

func TestBenchmarkNames(t *testing.T) {
	names := tango.Benchmarks()
	if len(names) != 7 {
		t.Fatalf("suite should expose 7 benchmarks, got %d: %v", len(names), names)
	}
	rnns := tango.RNNBenchmarks()
	if len(rnns) != 2 {
		t.Fatalf("suite should hold 2 RNN benchmarks, got %v", rnns)
	}
	for _, r := range rnns {
		if !slices.Contains(names, r) {
			t.Errorf("RNN benchmark %s missing from the suite %v", r, names)
		}
	}
}

func TestSuiteAndLoadBenchmark(t *testing.T) {
	s := tango.NewSuite()
	b, err := s.Benchmark("CifarNet")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "CifarNet" || b.Kind() != "CNN" {
		t.Errorf("identity: %s/%s", b.Name(), b.Kind())
	}
	if _, err := s.Benchmark("nope"); err == nil {
		t.Error("unknown benchmark should fail")
	}
	direct, err := tango.LoadBenchmark("GRU")
	if err != nil {
		t.Fatal(err)
	}
	if direct.Kind() != "RNN" {
		t.Errorf("GRU kind = %s", direct.Kind())
	}
}

func TestDescribe(t *testing.T) {
	b, err := tango.LoadBenchmark("CifarNet")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Describe()
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "CifarNet" || d.Kind != "CNN" {
		t.Errorf("describe identity: %+v", d)
	}
	if len(d.InputShape) != 3 || d.InputShape[0] != 3 || d.InputShape[1] != 32 {
		t.Errorf("input shape %v", d.InputShape)
	}
	if d.Classes != 9 {
		t.Errorf("classes = %d, want 9", d.Classes)
	}
	if d.Layers != 9 {
		t.Errorf("layers = %d, want 9", d.Layers)
	}
	if d.Parameters <= 0 || d.WeightBytes != d.Parameters*4 {
		t.Errorf("parameter accounting wrong: %+v", d)
	}
	if len(b.Layers()) != d.Layers {
		t.Error("Layers() length should match Describe().Layers")
	}
}

func TestClassifySampleAndExplicitInput(t *testing.T) {
	b, err := tango.LoadBenchmark("CifarNet")
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ClassifySample(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class < 0 || res.Class >= 9 {
		t.Errorf("class %d out of range", res.Class)
	}
	if len(res.Probabilities) != 9 {
		t.Errorf("probabilities length %d", len(res.Probabilities))
	}
	sum := 0.0
	for _, p := range res.Probabilities {
		sum += float64(p)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if len(res.LayerActivations) != 9 {
		t.Errorf("layer activations %d, want 9", len(res.LayerActivations))
	}

	// Explicit input path must agree with the sample helper.
	img, shape, err := b.SampleImage(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(shape) != 3 {
		t.Errorf("sample image shape %v", shape)
	}
	res2, err := b.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Class != res.Class {
		t.Error("Classify(SampleImage) should match ClassifySample")
	}
	if _, err := b.Classify([]float32{1, 2, 3}); err == nil {
		t.Error("wrong-size image should fail")
	}
	if _, err := b.Forecast([]float64{1, 2}); err == nil {
		t.Error("Forecast on a CNN should fail")
	}
	if _, err := b.SampleHistory(1); err == nil {
		t.Error("SampleHistory on a CNN should fail")
	}
}

func TestForecast(t *testing.T) {
	b, err := tango.LoadBenchmark("GRU")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := b.Forecast([]float64{0.41, 0.43})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pred) || math.IsInf(pred, 0) {
		t.Errorf("prediction %v", pred)
	}
	hist, err := b.SampleHistory(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Errorf("sample history length %d, want 2", len(hist))
	}
	pred2, err := b.Forecast(hist)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pred2) {
		t.Error("sample forecast is NaN")
	}
	if _, err := b.Forecast(nil); err == nil {
		t.Error("empty history should fail")
	}
	if _, err := b.Classify([]float32{1}); err == nil {
		t.Error("Classify on an RNN should fail")
	}
	if _, err := b.ClassifySample(1); err == nil {
		t.Error("ClassifySample on an RNN should fail")
	}
	if _, _, err := b.SampleImage(1); err == nil {
		t.Error("SampleImage on an RNN should fail")
	}
}

func TestSimulateOptions(t *testing.T) {
	b, err := tango.LoadBenchmark("GRU")
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Simulate(tango.WithFastSampling())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Seconds <= 0 || res.Instructions <= 0 {
		t.Errorf("implausible simulation result: %+v", res)
	}
	if res.PeakWatts <= 0 || res.AvgWatts <= 0 || res.EnergyJoules <= 0 {
		t.Error("power results missing")
	}
	if res.Device == "" || res.Network != "GRU" {
		t.Error("identity fields missing")
	}
	if len(res.Layers) != 2 {
		t.Errorf("layer results %d, want 2", len(res.Layers))
	}
	if len(res.StallShares) == 0 || len(res.OpShares) == 0 {
		t.Error("stall/op shares missing")
	}
	if res.IntegerTypeShare <= 0 || res.IntegerTypeShare >= 1 {
		t.Errorf("integer share %v out of range", res.IntegerTypeShare)
	}

	// Option validation.
	if _, err := b.Simulate(tango.WithDevice("bogus")); err == nil {
		t.Error("unknown device should fail")
	}
	if _, err := b.Simulate(tango.WithScheduler("fifo")); err == nil {
		t.Error("unknown scheduler should fail")
	}
	if _, err := b.Simulate(tango.WithL1SizeKB(-1)); err == nil {
		t.Error("negative L1 size should fail")
	}

	// TX1 should be slower than the default Pascal device.
	tx1, err := b.Simulate(tango.WithDevice("TX1"), tango.WithFastSampling())
	if err != nil {
		t.Fatal(err)
	}
	if tx1.Seconds <= res.Seconds {
		t.Errorf("TX1 (%.6fs) should be slower than GP102 (%.6fs)", tx1.Seconds, res.Seconds)
	}
	// Scheduler and cache options should run.
	if _, err := b.Simulate(tango.WithScheduler("lrr"), tango.WithL1SizeKB(0), tango.WithFastSampling()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Simulate(tango.WithExhaustiveSimulation()); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentsAPI(t *testing.T) {
	exps := tango.Experiments()
	if len(exps) != 20 {
		t.Fatalf("expected 20 experiments, got %d", len(exps))
	}
	tab, err := tango.RunExperiment("table2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "Pascal") {
		t.Error("table2 should mention the Pascal simulator configuration")
	}
	session := tango.NewExperimentSession(
		tango.WithNetworks("GRU", "CifarNet"),
		tango.WithFastExperimentSampling(),
	)
	fig, err := session.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 2 {
		t.Errorf("fig11 restricted to 2 networks, got %d rows", len(fig.Rows))
	}
	if _, err := session.Run("fig999"); err == nil {
		t.Error("unknown experiment should fail")
	}
}
