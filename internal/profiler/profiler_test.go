package profiler_test

import (
	"math"
	"testing"

	"tango/internal/gpusim"
	"tango/internal/kernel"
	"tango/internal/networks"
	"tango/internal/profiler"
)

func simulate(t *testing.T, name string) *gpusim.RunStats {
	t.Helper()
	n, err := networks.New(name)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := gpusim.New(gpusim.DefaultConfig().WithSampling(gpusim.FastSampling()))
	if err != nil {
		t.Fatal(err)
	}
	kernels, err := kernel.Generate(n)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sim.RunKernels(n.Name, kernels)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestMemoryFootprint(t *testing.T) {
	cases := []struct {
		name  string
		maxKB float64
		minKB float64
	}{
		// Observation 9 / Figure 11: RNNs below 500KB, CNNs at least 1MB.
		{"GRU", 500, 1},
		{"LSTM", 500, 1},
		{"AlexNet", 1 << 20, 1024},
		{"ResNet", 1 << 20, 1024},
		{"SqueezeNet", 1 << 20, 1024},
	}
	for _, c := range cases {
		n, err := networks.New(c.name)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := profiler.MemoryFootprint(n)
		if err != nil {
			t.Fatal(err)
		}
		if fp.Network != c.name {
			t.Errorf("%s: wrong network name %q", c.name, fp.Network)
		}
		if fp.TotalBytes != fp.WeightBytes+fp.ActivationBytes+fp.WorkspaceBytes {
			t.Errorf("%s: footprint components do not sum", c.name)
		}
		if fp.KB() < c.minKB || fp.KB() > c.maxKB {
			t.Errorf("%s: footprint %.1f KB outside [%v, %v]", c.name, fp.KB(), c.minKB, c.maxKB)
		}
	}
	if _, err := profiler.MemoryFootprint(nil); err == nil {
		t.Error("nil network should fail")
	}
	if _, err := profiler.MemoryFootprint(&networks.Network{Name: "x"}); err == nil {
		t.Error("unbuilt network should fail")
	}
}

func TestFootprintOrdering(t *testing.T) {
	// Model size ordering: SqueezeNet (designed for few parameters) must be
	// far smaller than AlexNet.
	alex, err := networks.NewAlexNet()
	if err != nil {
		t.Fatal(err)
	}
	squeeze, err := networks.NewSqueezeNet()
	if err != nil {
		t.Fatal(err)
	}
	fpA, err := profiler.MemoryFootprint(alex)
	if err != nil {
		t.Fatal(err)
	}
	fpS, err := profiler.MemoryFootprint(squeeze)
	if err != nil {
		t.Fatal(err)
	}
	if fpS.WeightBytes*10 > fpA.WeightBytes {
		t.Errorf("SqueezeNet weights (%d) should be well under a tenth of AlexNet's (%d)",
			fpS.WeightBytes, fpA.WeightBytes)
	}
}

func TestRegisters(t *testing.T) {
	rs := simulate(t, "CifarNet")
	reg := profiler.Registers(rs)
	if reg.MaxAllocatedBytes <= 0 || reg.MaxLiveBytes <= 0 {
		t.Fatal("register usage should be positive")
	}
	if reg.MaxLiveBytes > reg.MaxAllocatedBytes {
		t.Error("live registers cannot exceed allocated registers")
	}
	if reg.KBAllocated() <= 0 || reg.KBLive() <= 0 {
		t.Error("KB conversions should be positive")
	}
	// Observation 10: the 256KB per-SM register file is under-utilized by the
	// small networks.
	if reg.KBAllocated() > 256 {
		t.Errorf("CifarNet register allocation %.1f KB should be below the 256KB register file", reg.KBAllocated())
	}
}

func TestOpBreakdownSharesSumToOne(t *testing.T) {
	rs := simulate(t, "CifarNet")
	shares := profiler.OpBreakdown(rs)
	if len(shares) == 0 {
		t.Fatal("no op shares")
	}
	sum := 0.0
	for i, s := range shares {
		if s.Share <= 0 {
			t.Errorf("share %d not positive", i)
		}
		if i > 0 && s.Share > shares[i-1].Share {
			t.Error("shares must be sorted descending")
		}
		sum += s.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestTopOpsCoverage(t *testing.T) {
	// Observation 7: the top 10 operations cover ~95% of execution.
	rs := simulate(t, "CifarNet")
	top10 := profiler.TopOpsCoverage(rs, 10)
	if top10 < 0.85 {
		t.Errorf("top-10 coverage %.2f, want >= 0.85", top10)
	}
	all := profiler.TopOpsCoverage(rs, 100)
	if math.Abs(all-1) > 1e-9 {
		t.Errorf("full coverage %v, want 1", all)
	}
	if profiler.TopOpsCoverage(rs, 4) >= top10 {
		t.Error("coverage must grow with n")
	}
}

func TestMergedOpBreakdown(t *testing.T) {
	a := simulate(t, "GRU")
	b := simulate(t, "CifarNet")
	merged := profiler.MergedOpBreakdown([]*gpusim.RunStats{a, b})
	if len(merged) == 0 {
		t.Fatal("merged breakdown empty")
	}
	sum := 0.0
	for _, s := range merged {
		sum += s.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("merged shares sum to %v", sum)
	}
	if profiler.MergedOpBreakdown(nil) != nil {
		t.Error("empty merge should return nil")
	}
}

func TestTypeTimelineAndIntegerShare(t *testing.T) {
	rs := simulate(t, "CifarNet")
	timeline := profiler.TypeTimeline(rs)
	if len(timeline) != len(rs.Kernels) {
		t.Errorf("timeline has %d entries for %d kernels", len(timeline), len(rs.Kernels))
	}
	for _, lt := range timeline {
		sum := 0.0
		for _, v := range lt.Shares {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("layer %s type shares sum to %v", lt.Layer, sum)
		}
	}
	// Observation 8: integer types dominate.
	intShare := profiler.IntegerShare(rs)
	if intShare <= 0.5 {
		t.Errorf("integer share %.2f, want > 0.5", intShare)
	}
	if intShare >= 1 {
		t.Errorf("integer share %.2f should leave room for f32", intShare)
	}
}

func TestStallBreakdowns(t *testing.T) {
	rs := simulate(t, "CifarNet")
	byClass := profiler.StallBreakdownByClass(rs)
	if len(byClass) == 0 {
		t.Fatal("no stall classes")
	}
	for class, shares := range byClass {
		sum := 0.0
		for _, v := range shares {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("class %s stall shares sum to %v", class, sum)
		}
	}
	if _, ok := byClass[networks.ClassConv]; !ok {
		t.Error("conv class missing from stall breakdown")
	}
	total := profiler.StallBreakdownTotal(rs)
	sum := 0.0
	for _, v := range total {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("total stall shares sum to %v", sum)
	}
}
