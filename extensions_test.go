package tango_test

import (
	"testing"

	"tango"
)

// TestExtensionBenchmarks checks that MobileNet, the network the paper
// lists as under development, loads like any benchmark but stays out of the
// suite list the figure reproductions walk.
func TestExtensionBenchmarks(t *testing.T) {
	for _, name := range tango.Benchmarks() {
		if name == "MobileNet" {
			t.Error("extensions must not appear in the core benchmark list")
		}
	}
	if _, err := tango.LoadBenchmark("MobileNet"); err != nil {
		t.Fatal(err)
	}
}

func TestMobileNetExtensionEndToEnd(t *testing.T) {
	b, err := tango.LoadBenchmark("MobileNet")
	if err != nil {
		t.Fatal(err)
	}
	desc, err := b.Describe()
	if err != nil {
		t.Fatal(err)
	}
	if desc.Kind != "CNN" || desc.Classes != 1000 {
		t.Errorf("MobileNet identity wrong: %+v", desc)
	}
	// MobileNet v1 has ~4.2M parameters, an order of magnitude below AlexNet.
	if desc.Parameters < 3_000_000 || desc.Parameters > 6_000_000 {
		t.Errorf("MobileNet parameters = %d, want ~4.2M", desc.Parameters)
	}
	// The lowered kernels must validate and simulate.
	sim, err := b.Simulate(tango.WithFastSampling())
	if err != nil {
		t.Fatal(err)
	}
	if sim.Cycles <= 0 {
		t.Error("MobileNet simulation produced no cycles")
	}
	// Depthwise-separable networks are still convolution-dominated.
	conv := sim.CyclesByLayerClass["Conv"]
	if conv*2 < sim.Cycles {
		t.Errorf("conv cycles %d should dominate MobileNet's %d total", conv, sim.Cycles)
	}
}
