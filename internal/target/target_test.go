package target

import (
	"strings"
	"testing"

	"tango/internal/device"
	"tango/internal/fpga"
	"tango/internal/gpusim"
	"tango/internal/sched"
)

func TestBuiltinRegistry(t *testing.T) {
	reg := Builtin()
	names := reg.Names()
	want := []string{"gp102", "gk210", "tx1", "pynq"}
	if len(names) != len(want) {
		t.Fatalf("builtin targets = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("builtin target %d = %q, want %q", i, names[i], n)
		}
	}
	for alias, canonical := range map[string]string{
		"SIMULATOR": "gp102",
		"k80":       "gk210",
		"Edge":      "tx1",
		"fpga":      "pynq",
		" pynq-z1 ": "pynq",
	} {
		tgt, err := reg.Lookup(alias)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", alias, err)
		}
		if tgt.Name() != canonical {
			t.Errorf("Lookup(%q) = %q, want %q", alias, tgt.Name(), canonical)
		}
	}
	if _, err := reg.Lookup("a100"); err == nil || !strings.Contains(err.Error(), "unknown target") {
		t.Errorf("unknown target should fail with the known list, got %v", err)
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(NewGPU("gp102", device.PascalGP102())); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(NewGPU("GP102", device.PascalGP102())); err == nil {
		t.Error("duplicate canonical name (case-insensitive) should be rejected")
	}
	if err := reg.Register(NewGPU("other", device.GK210()), "gp102"); err == nil {
		t.Error("alias colliding with a taken name should be rejected")
	}
}

func mustLookup(t *testing.T, name string) Target {
	t.Helper()
	tgt, err := Builtin().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestGPUCacheKeyCanonicalizes asserts that the default configuration and an
// explicit override matching the device default resolve to the same run key —
// the content-addressing that lets Figure 2's 64KB point reuse the default
// run on the GP102.
func TestGPUCacheKeyCanonicalizes(t *testing.T) {
	gp102 := mustLookup(t, "gp102")
	s := gpusim.FastSampling()
	def := DefaultVariant(s)
	l164 := DefaultVariant(s).WithL1(64 << 10)
	if gp102.CacheKey(def) != gp102.CacheKey(l164) {
		t.Errorf("GP102 default (64KB L1) and explicit 64KB override should share a key:\n%s\n%s",
			gp102.CacheKey(def), gp102.CacheKey(l164))
	}
	nol1 := DefaultVariant(s).WithL1(0)
	if gp102.CacheKey(def) == gp102.CacheKey(nol1) {
		t.Error("bypassed L1 must not share the default key")
	}
	lrr := DefaultVariant(s).WithScheduler(sched.LRR)
	if gp102.CacheKey(def) == gp102.CacheKey(lrr) {
		t.Error("scheduler override must not share the default key")
	}
	if gp102.CacheKey(def) == gp102.CacheKey(DefaultVariant(gpusim.DefaultSampling())) {
		t.Error("sampling level must participate in the key")
	}
	// The worker count never changes a result, so it never splits a run.
	workers := def
	workers.Workers = 4
	if gp102.CacheKey(def) != gp102.CacheKey(workers) {
		t.Error("the worker count must not participate in the key")
	}
	// Distinct devices must never collide, even under identical variants.
	if gp102.CacheKey(def) == mustLookup(t, "tx1").CacheKey(def) {
		t.Error("targets with different devices must not share keys")
	}
}

// TestFPGACacheKeyCollapsesVariants asserts the FPGA model's insensitivity to
// GPU-only knobs is reflected in its cache key.
func TestFPGACacheKeyCollapsesVariants(t *testing.T) {
	pynq := mustLookup(t, "pynq")
	s := gpusim.FastSampling()
	a := pynq.CacheKey(DefaultVariant(s))
	b := pynq.CacheKey(DefaultVariant(gpusim.DefaultSampling()).WithL1(0))
	if a != b {
		t.Errorf("FPGA cache keys should collapse all GPU-only variants: %q vs %q", a, b)
	}
}

// TestTargetsAgreeOnSharedTrace runs one trace on a GPU target and the FPGA
// target and sanity-checks both derivations.
func TestTargetsAgreeOnSharedTrace(t *testing.T) {
	tr, err := Extract("CifarNet")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Net == nil || len(tr.Kernels) == 0 {
		t.Fatal("trace should carry the built network and its kernels")
	}

	v := DefaultVariant(gpusim.FastSampling())
	gpu, err := mustLookup(t, "gp102").Run(tr, v)
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Class != device.ClassGPU || gpu.GPU == nil || gpu.FPGA != nil {
		t.Errorf("GPU run should carry the simulator payload: %+v", gpu)
	}
	if gpu.Cycles <= 0 || gpu.Seconds <= 0 || gpu.Instructions <= 0 || gpu.PeakWatts <= 0 {
		t.Errorf("GPU summary fields should be positive: %+v", gpu)
	}
	if len(gpu.GPU.Kernels) != len(tr.Kernels) {
		t.Errorf("GPU run covers %d kernels, trace has %d", len(gpu.GPU.Kernels), len(tr.Kernels))
	}

	fp, err := mustLookup(t, "pynq").Run(tr, v)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Class != device.ClassFPGA || fp.FPGA == nil || fp.GPU != nil {
		t.Errorf("FPGA run should carry the dataflow payload: %+v", fp)
	}
	if fp.Cycles != 0 {
		t.Errorf("FPGA run has no core clock domain, got %d cycles", fp.Cycles)
	}
	if fp.Seconds <= 0 || fp.EnergyJoules <= 0 {
		t.Errorf("FPGA summary fields should be positive: %+v", fp)
	}
	// The paper's Figure 6 relationship: the FPGA draws far less peak power.
	if fp.PeakWatts >= gpu.PeakWatts {
		t.Errorf("PynQ peak power (%.1fW) should undercut the GP102's (%.1fW)", fp.PeakWatts, gpu.PeakWatts)
	}
}

func TestNewFPGARejectsBadConfig(t *testing.T) {
	cfg := fpga.DefaultConfig()
	cfg.DSPEfficiency = 2
	if _, err := NewFPGA("bad", cfg); err == nil {
		t.Error("invalid FPGA config should be rejected")
	}
}
