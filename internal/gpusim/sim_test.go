package gpusim_test

import (
	"reflect"
	"slices"
	"testing"

	"tango/internal/cache"
	"tango/internal/device"
	"tango/internal/gpusim"
	"tango/internal/isa"
	"tango/internal/kernel"
	"tango/internal/networks"
	"tango/internal/sched"
)

// fastSim returns a simulator with coarse sampling for quick tests.
func fastSim(t *testing.T, cfg gpusim.Config) *gpusim.Simulator {
	t.Helper()
	cfg = cfg.WithSampling(gpusim.FastSampling())
	sim, err := gpusim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// runKernel simulates one kernel by itself, on a machine of its own.
func runKernel(sim *gpusim.Simulator, k *kernel.Kernel) (*gpusim.KernelStats, error) {
	rs, err := sim.RunKernels(k.Network, []*kernel.Kernel{k})
	if err != nil {
		return nil, err
	}
	return rs.Kernels[0], nil
}

func runNet(t *testing.T, sim *gpusim.Simulator, name string) *gpusim.RunStats {
	t.Helper()
	n, err := networks.New(name)
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

func TestConfigValidateDefaults(t *testing.T) {
	cfg := gpusim.ConfigFor(device.PascalGP102())
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.ModeledSMs <= 0 || cfg.IssueWidth <= 0 {
		t.Error("defaults should be filled")
	}
	zero := gpusim.Config{}
	if err := zero.Validate(); err == nil {
		t.Error("zero config should fail (no device)")
	}
	bad := gpusim.ConfigFor(device.PascalGP102())
	bad.Scheduler = "bogus"
	if err := bad.Validate(); err == nil {
		t.Error("unknown scheduler should fail")
	}
	bad = gpusim.ConfigFor(device.PascalGP102())
	bad.L2 = cache.Config{}
	if err := bad.Validate(); err == nil {
		t.Error("bypassed L2 should fail")
	}
	bad = gpusim.ConfigFor(device.PascalGP102())
	bad.Sampling.MaxCTAs = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative sampling should fail")
	}
}

func TestConfigWithHelpers(t *testing.T) {
	cfg := gpusim.ConfigFor(device.PascalGP102()).WithL1Size(0)
	if !cfg.L1D.Bypassed() {
		t.Error("WithL1Size(0) should bypass the L1")
	}
	cfg = gpusim.ConfigFor(device.PascalGP102()).WithL1Size(128 << 10)
	if cfg.L1D.SizeBytes != 128<<10 {
		t.Errorf("L1 size = %d", cfg.L1D.SizeBytes)
	}
	cfg = gpusim.ConfigFor(device.PascalGP102()).WithScheduler(sched.LRR)
	if cfg.Scheduler != sched.LRR {
		t.Error("WithScheduler did not apply")
	}
}

func TestStallReasonNames(t *testing.T) {
	if len(gpusim.StallReasons()) != int(gpusim.NumStallReasons) {
		t.Error("StallReasons() should enumerate every reason")
	}
	for _, r := range gpusim.StallReasons() {
		if r.String() == "" || r.String() == "unknown" {
			t.Errorf("reason %d has no name", r)
		}
	}
	if gpusim.StallMemoryThrottle.String() != "memory_throttle" {
		t.Error("unexpected stall name")
	}
}

func TestRunKernelBasicInvariants(t *testing.T) {
	n, err := networks.NewCifarNet()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := kernel.Generate(n)
	if err != nil {
		t.Fatal(err)
	}
	sim := fastSim(t, gpusim.ConfigFor(device.PascalGP102()))
	st, err := runKernel(sim, ks[0]) // conv1
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles <= 0 || st.Seconds <= 0 {
		t.Errorf("cycles=%d seconds=%v must be positive", st.Cycles, st.Seconds)
	}
	if st.SimCycles <= 0 || st.SimThreadInstructions <= 0 {
		t.Error("simulated portion must be non-empty")
	}
	if st.ScaleFactor < 1 {
		t.Errorf("scale factor %v must be >= 1", st.ScaleFactor)
	}
	if st.TotalThreadInstructions != ks[0].DynamicInstructions() {
		t.Error("total instruction accounting mismatch")
	}
	var opTotal int64
	for _, c := range st.OpCounts {
		opTotal += c
	}
	if opTotal != st.TotalThreadInstructions {
		t.Errorf("op counts sum %d, want %d", opTotal, st.TotalThreadInstructions)
	}
	var typeTotal int64
	for _, c := range st.TypeCounts {
		typeTotal += c
	}
	if typeTotal != st.TotalThreadInstructions {
		t.Errorf("type counts sum %d, want %d", typeTotal, st.TotalThreadInstructions)
	}
	var stalls int64
	for _, v := range st.Stalls {
		stalls += v
	}
	if stalls == 0 {
		t.Error("a convolution kernel should record stall cycles")
	}
	if st.Activity.IssuedInstructions <= 0 || st.Activity.RegReads <= 0 {
		t.Error("activity counters should be populated")
	}
	if st.L2.Accesses == 0 {
		t.Error("global memory traffic should reach the L2")
	}
	if st.AllocatedRegsPerSM <= 0 || st.LiveRegsPerSM <= 0 {
		t.Error("register usage should be recorded")
	}
	if st.AllocatedRegsPerSM < st.LiveRegsPerSM {
		t.Error("allocated registers cannot be fewer than live registers")
	}
}

func TestRunKernelRejectsInvalidKernel(t *testing.T) {
	sim := fastSim(t, gpusim.ConfigFor(device.PascalGP102()))
	if _, err := runKernel(sim, &kernel.Kernel{Name: "empty"}); err == nil {
		t.Error("invalid kernel should fail")
	}
}

func TestRunNetworkAllBenchmarksSmallSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite simulation skipped in -short mode")
	}
	sim := fastSim(t, gpusim.ConfigFor(device.PascalGP102()))
	for _, name := range []string{"GRU", "LSTM", "CifarNet"} {
		rs := runNet(t, sim, name)
		if rs.TotalCycles() <= 0 {
			t.Errorf("%s: no cycles", name)
		}
		if len(rs.Kernels) == 0 {
			t.Errorf("%s: no kernels", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	sim1 := fastSim(t, gpusim.ConfigFor(device.PascalGP102()))
	sim2 := fastSim(t, gpusim.ConfigFor(device.PascalGP102()))
	a := runNet(t, sim1, "CifarNet")
	b := runNet(t, sim2, "CifarNet")
	if a.TotalCycles() != b.TotalCycles() {
		t.Errorf("simulation must be deterministic: %d vs %d", a.TotalCycles(), b.TotalCycles())
	}
	for i := range a.Kernels {
		if a.Kernels[i].Cycles != b.Kernels[i].Cycles {
			t.Errorf("kernel %s cycles differ", a.Kernels[i].Kernel.Name)
		}
		if a.Kernels[i].Stalls != b.Kernels[i].Stalls {
			t.Errorf("kernel %s stalls differ", a.Kernels[i].Kernel.Name)
		}
	}
}

func TestConvolutionDominatesCifarNet(t *testing.T) {
	// Observation 1: convolution layers take the majority of CNN execution
	// time.
	sim := fastSim(t, gpusim.ConfigFor(device.PascalGP102()))
	rs := runNet(t, sim, "CifarNet")
	byClass := rs.CyclesByClass()
	conv := byClass[networks.ClassConv]
	if conv*2 < rs.TotalCycles() {
		t.Errorf("conv cycles %d should exceed half of total %d", conv, rs.TotalCycles())
	}
}

func TestCacheSensitivityCNNvsRNN(t *testing.T) {
	// Observation 2: on-chip cache helps CNNs; RNN sensitivity beyond the
	// default L1 size is negligible.
	if testing.Short() {
		t.Skip("cache sweep skipped in -short mode")
	}
	run := func(name string, l1 int) int64 {
		sim := fastSim(t, gpusim.ConfigFor(device.PascalGP102()).WithL1Size(l1))
		return runNet(t, sim, name).TotalCycles()
	}
	cifarNo := run("CifarNet", 0)
	cifar64 := run("CifarNet", 64<<10)
	if cifar64 >= cifarNo {
		t.Errorf("CifarNet with 64KB L1 (%d cycles) should beat no-L1 (%d)", cifar64, cifarNo)
	}
	gru64 := run("GRU", 64<<10)
	gru256 := run("GRU", 256<<10)
	diff := float64(gru64-gru256) / float64(gru64)
	if diff > 0.05 || diff < -0.05 {
		t.Errorf("GRU should be insensitive to L1 growth beyond 64KB, got %.1f%% change", diff*100)
	}
}

func TestSchedulerKindsAllRun(t *testing.T) {
	for _, k := range sched.Kinds() {
		sim := fastSim(t, gpusim.ConfigFor(device.PascalGP102()).WithScheduler(k))
		rs := runNet(t, sim, "CifarNet")
		if rs.TotalCycles() <= 0 {
			t.Errorf("scheduler %s produced no cycles", k)
		}
	}
}

func TestBypassedL1RoutesTrafficToL2(t *testing.T) {
	simNo := fastSim(t, gpusim.ConfigFor(device.PascalGP102()).WithL1Size(0))
	simWith := fastSim(t, gpusim.ConfigFor(device.PascalGP102()))
	no := runNet(t, simNo, "CifarNet")
	with := runNet(t, simWith, "CifarNet")
	var l2No, l2With int64
	for _, k := range no.Kernels {
		l2No += k.L2.Accesses
	}
	for _, k := range with.Kernels {
		l2With += k.L2.Accesses
	}
	if l2No <= l2With {
		t.Errorf("bypassing L1 should increase L2 traffic: %d vs %d", l2No, l2With)
	}
	for _, k := range no.Kernels {
		if k.L1.Accesses != 0 {
			t.Errorf("%s: bypassed L1 should record no accesses", k.Kernel.Name)
		}
	}
}

func TestFCHasHigherL2MissRatioThanConv(t *testing.T) {
	// Observation 11: convolution layers have much better data locality than
	// fully-connected layers.  Compare under a bypassed L1 like Figure 14.
	sim := fastSim(t, gpusim.ConfigFor(device.PascalGP102()).WithL1Size(0))
	rs := runNet(t, sim, "CifarNet")
	byClass := rs.L2ByClass()
	conv := byClass[networks.ClassConv]
	fc := byClass[networks.ClassFC]
	if conv.Accesses == 0 || fc.Accesses == 0 {
		t.Fatal("expected both conv and fc L2 traffic")
	}
	if fc.MissRatio() <= conv.MissRatio() {
		t.Errorf("FC L2 miss ratio (%.4f) should exceed conv (%.4f)", fc.MissRatio(), conv.MissRatio())
	}
}

func TestRNNvsCNNStallCharacter(t *testing.T) {
	// GRU/LSTM and the CNN layers should all report a breakdown over the
	// nvprof categories, with memory- and execution-dependency stalls present.
	sim := fastSim(t, gpusim.ConfigFor(device.PascalGP102()))
	rs := runNet(t, sim, "LSTM")
	stalls := rs.StallsByClass()[networks.ClassRNN]
	var total int64
	for _, v := range stalls {
		total += v
	}
	if total == 0 {
		t.Fatal("LSTM should record stall cycles")
	}
	if stalls[gpusim.StallExecDependency]+stalls[gpusim.StallMemoryDependency] == 0 {
		t.Error("dependency stalls should be present for the LSTM layer")
	}
}

func TestExhaustiveSamplingOnTinyKernel(t *testing.T) {
	// The last FC layer of CifarNet is small enough to simulate exhaustively;
	// sampled and exhaustive runs must agree on total instruction counts and
	// report a scale factor of exactly 1 for the exhaustive case.
	n, err := networks.NewCifarNet()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := kernel.Generate(n)
	if err != nil {
		t.Fatal(err)
	}
	var fc2 *kernel.Kernel
	for _, k := range ks {
		if k.LayerName == "fc2" {
			fc2 = k
		}
	}
	if fc2 == nil {
		t.Fatal("fc2 kernel not found")
	}
	exCfg := gpusim.ConfigFor(device.PascalGP102()).WithSampling(gpusim.Exhaustive())
	exSim, err := gpusim.New(exCfg)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := runKernel(exSim, fc2)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ScaleFactor != 1 {
		t.Errorf("exhaustive run scale factor = %v, want 1", ex.ScaleFactor)
	}
	if ex.SimThreadInstructions != ex.TotalThreadInstructions {
		t.Errorf("exhaustive run should simulate every instruction: %d vs %d",
			ex.SimThreadInstructions, ex.TotalThreadInstructions)
	}

	sampled, err := runKernel(fastSim(t, gpusim.ConfigFor(device.PascalGP102())), fc2)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.TotalThreadInstructions != ex.TotalThreadInstructions {
		t.Error("sampling must not change the total dynamic instruction count")
	}
	if sampled.ScaleFactor < 1 {
		t.Error("sampled scale factor must be >= 1")
	}
}

// TestExhaustiveTrustsSimulatedTimeOnlyOnModeledSMs: an exhaustive run of a
// kernel with 3-28 CTAs reports the simulated time as the kernel's own only
// when every SM the kernel occupies on the device is modeled.  With all of
// GP102's 28 SMs modeled that is what it reports; with the default two, the
// simulated time is a two-SM machine's and the extrapolation to the SMs the
// CTAs occupy stands.
func TestExhaustiveTrustsSimulatedTimeOnlyOnModeledSMs(t *testing.T) {
	for _, ctas := range []int{3, 10, 28} {
		k := &kernel.Kernel{
			Name: "synthetic/small", Network: "synthetic", LayerName: "small", Class: "conv",
			Launch: kernel.LaunchConfig{Grid: [3]int{ctas, 1, 1}, Block: [3]int{128, 1, 1}, Regs: 8},
			Program: kernel.Program{
				Loops: []kernel.Loop{{Trip: 8, Body: []isa.Instruction{
					isa.NewLoad(isa.TypeF32, 1, isa.SpaceGlobal, isa.AccessPattern{Region: isa.RegionInput, ThreadStride: 4, IterStride: 512}),
					isa.NewALU(isa.OpMad, isa.TypeF32, 2, 1, 1, 2),
				}}},
				Epilogue: []isa.Instruction{isa.NewStore(isa.TypeF32, 2, isa.SpaceGlobal, isa.AccessPattern{Region: isa.RegionOutput, ThreadStride: 4})},
			},
			InputBytes: 1 << 16, OutputBytes: 1 << 16,
		}
		for _, modeled := range []int{28, 2} {
			cfg := gpusim.ConfigFor(device.PascalGP102()).WithSampling(gpusim.Exhaustive())
			cfg.ModeledSMs = modeled
			sim, err := gpusim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := runKernel(sim, k)
			if err != nil {
				t.Fatal(err)
			}
			if covered := modeled >= ctas; covered != (st.Cycles == st.SimCycles) {
				t.Errorf("%d CTAs, %d modeled SMs: Cycles %d, SimCycles %d; want equal: %v", ctas, modeled, st.Cycles, st.SimCycles, covered)
			}
		}
	}
}

func TestDifferentDevicesGiveDifferentTimes(t *testing.T) {
	// The same workload should be slower on the 2-SM TX1 than on the 28-SM
	// Pascal simulator configuration.
	pascal := fastSim(t, gpusim.ConfigFor(device.PascalGP102()))
	tx1 := fastSim(t, gpusim.ConfigFor(device.TX1()))
	a := runNet(t, pascal, "CifarNet")
	b := runNet(t, tx1, "CifarNet")
	if b.TotalSeconds() <= a.TotalSeconds() {
		t.Errorf("TX1 (%.6fs) should be slower than GP102 (%.6fs)", b.TotalSeconds(), a.TotalSeconds())
	}
}

func TestOpMixObservation7(t *testing.T) {
	// Observation 7: the top operations (add, mad, mul, shl, plus the load
	// family) dominate execution.
	sim := fastSim(t, gpusim.ConfigFor(device.PascalGP102()))
	rs := runNet(t, sim, "CifarNet")
	ops := rs.OpTotals()
	var total int64
	for _, c := range ops {
		total += c
	}
	top := ops[isa.OpAdd] + ops[isa.OpMad] + ops[isa.OpMad24] + ops[isa.OpMul] + ops[isa.OpShl] + ops[isa.OpLd]
	if total == 0 {
		t.Fatal("no operations recorded")
	}
	if float64(top)/float64(total) < 0.5 {
		t.Errorf("top operations cover %.1f%%, want > 50%%", 100*float64(top)/float64(total))
	}
}

func TestActivityAddAndScale(t *testing.T) {
	a := gpusim.Activity{IssuedInstructions: 10, RegReads: 20, SPOps: 5}
	a.Add(gpusim.Activity{IssuedInstructions: 1, FPUOps: 2})
	if a.IssuedInstructions != 11 || a.FPUOps != 2 {
		t.Errorf("Add result %+v", a)
	}
	a.Scale(2)
	if a.IssuedInstructions != 22 || a.RegReads != 40 {
		t.Errorf("Scale result %+v", a)
	}
}

// bigBlockKernel returns a CifarNet conv kernel rewritten to launch 1024
// threads (32 warps) per block, large enough that even a single CTA uses a
// substantial fraction of an SM's warp capacity.
func bigBlockKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	n, err := networks.NewCifarNet()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := kernel.Generate(n)
	if err != nil {
		t.Fatal(err)
	}
	k := *ks[0]
	k.Launch.Block = [3]int{1024, 1, 1}
	k.Launch.Grid = [3]int{8, 1, 1}
	return &k
}

func TestOccupancyNeverExceedsWarpCapacity(t *testing.T) {
	// Regression: residency used to take the max of the configured CTA limit
	// and the warp-capacity-derived limit, so a kernel with 32-warp blocks on
	// a device with a 48-warp SM kept 2 CTAs (64 warps) resident.
	cfg := gpusim.ConfigFor(device.PascalGP102())
	cfg.Device.MaxWarpsPerSM = 48
	sim := fastSim(t, cfg)
	st, err := runKernel(sim, bigBlockKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxResidentWarpsPerSM > 48 {
		t.Errorf("resident warps per SM = %d, exceeds device capacity 48", st.MaxResidentWarpsPerSM)
	}
	if st.MaxResidentWarpsPerSM != 32 {
		t.Errorf("resident warps per SM = %d, want exactly one 32-warp CTA", st.MaxResidentWarpsPerSM)
	}
}

func TestOccupancyRaisesResidencyForSmallBlocks(t *testing.T) {
	// The small-block behaviour must survive the clamp: a kernel whose blocks
	// are far below warp capacity keeps more CTAs than the configured minimum
	// resident (as long as enough blocks exist to fill the SM).
	n, err := networks.NewCifarNet()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := kernel.Generate(n)
	if err != nil {
		t.Fatal(err)
	}
	var small *kernel.Kernel
	for _, k := range ks {
		if k.Launch.WarpsPerBlock() <= 4 && k.Launch.Blocks() >= 16 {
			small = k
			break
		}
	}
	if small == nil {
		t.Skip("no small-block kernel with enough blocks in CifarNet")
	}
	cfg := gpusim.ConfigFor(device.PascalGP102())
	sim := fastSim(t, cfg)
	st, err := runKernel(sim, small)
	if err != nil {
		t.Fatal(err)
	}
	warpsPerCTA := small.Launch.WarpsPerBlock()
	if st.MaxResidentWarpsPerSM <= cfg.MaxCTAsPerSM*warpsPerCTA {
		t.Errorf("%s: resident warps %d should exceed the configured minimum %d CTAs x %d warps",
			small.Name, st.MaxResidentWarpsPerSM, cfg.MaxCTAsPerSM, warpsPerCTA)
	}
	if st.MaxResidentWarpsPerSM > cfg.Device.MaxWarpsPerSM {
		t.Errorf("%s: resident warps %d exceed device capacity %d",
			small.Name, st.MaxResidentWarpsPerSM, cfg.Device.MaxWarpsPerSM)
	}
}

func TestRunKernelsParallelMatchesSerial(t *testing.T) {
	n, err := networks.NewCifarNet()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := kernel.Generate(n)
	if err != nil {
		t.Fatal(err)
	}
	base := gpusim.ConfigFor(device.PascalGP102()).WithSampling(gpusim.FastSampling())
	serialSim, err := gpusim.New(base)
	if err != nil {
		t.Fatal(err)
	}
	parallelSim, err := gpusim.New(base.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := serialSim.RunKernels("CifarNet", ks)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := parallelSim.RunKernels("CifarNet", ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Kernels) != len(parallel.Kernels) {
		t.Fatalf("kernel counts differ: %d vs %d", len(serial.Kernels), len(parallel.Kernels))
	}
	for i := range serial.Kernels {
		if !reflect.DeepEqual(serial.Kernels[i], parallel.Kernels[i]) {
			t.Errorf("kernel %s: parallel statistics differ from serial", ks[i].Name)
		}
	}
}

func TestRunKernelSteadyStateAllocations(t *testing.T) {
	// The cycle loop must not allocate per cycle or per memory access: a conv
	// kernel simulating tens of thousands of cycles allocates what building
	// the machine does (one slice per cache set dominates: 1,536 L2 sets and
	// 2 x 128 L1 sets here) plus the growth of a few buffers.  The limits are
	// the measured counts plus ten percent.
	n, err := networks.NewCifarNet()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := kernel.Generate(n)
	if err != nil {
		t.Fatal(err)
	}
	k := ks[0]
	for _, tc := range []struct {
		name  string
		cfg   gpusim.Config
		limit float64
	}{
		{"default-l1", gpusim.ConfigFor(device.PascalGP102()), 2120},                // measured 1,926
		{"bypassed-l1", gpusim.ConfigFor(device.PascalGP102()).WithL1Size(0), 1840}, // measured 1,671
	} {
		sim, err := gpusim.New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := runKernel(sim, k)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := runKernel(sim, k); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d sim cycles, %.0f allocs per run", tc.name, st.SimCycles, allocs)
		if st.SimCycles < 10_000 {
			t.Fatalf("%s: kernel too small (%d cycles) to exercise the steady state", tc.name, st.SimCycles)
		}
		if allocs > tc.limit {
			t.Errorf("%s: %.0f allocations per run, limit %.0f; the cycle loop is allocating in steady state", tc.name, allocs, tc.limit)
		}
	}
}

func TestRunKernelsReusesOneMachine(t *testing.T) {
	// A network's kernels share one recycled machine per worker, so a whole
	// CifarNet run — the per-cell quantity the benchmark's allocs_per_item
	// reports — allocates about what one kernel does, and recycling leaves no
	// trace: a second run on the same simulator is equal in every field, and
	// so is each kernel run alone on a machine of its own.  The limits are
	// the measured counts plus ten percent.
	n, err := networks.NewCifarNet()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := kernel.Generate(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cfg   gpusim.Config
		limit float64
	}{
		{"default-l1", gpusim.ConfigFor(device.PascalGP102()), 2220},                   // measured 2,018
		{"bypassed-l1", gpusim.ConfigFor(device.PascalGP102()).WithL1Size(0), 1930},    // measured 1,755
		{"tlv", gpusim.ConfigFor(device.PascalGP102()).WithScheduler(sched.TLV), 2230}, // measured 2,025
	} {
		sim := fastSim(t, tc.cfg)
		first, err := sim.RunKernels("CifarNet", ks)
		if err != nil {
			t.Fatal(err)
		}
		var second *gpusim.RunStats
		allocs := testing.AllocsPerRun(3, func() {
			if second, err = sim.RunKernels("CifarNet", ks); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d kernels, %.0f allocs per run", tc.name, len(ks), allocs)
		if allocs > tc.limit {
			t.Errorf("%s: %.0f allocations per RunKernels, limit %.0f", tc.name, allocs, tc.limit)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: a second RunKernels on the same simulator returned different statistics", tc.name)
		}
		equalsFreshMachine(t, tc.name, sim, ks, first)
	}

	// ResNet launches most of its kernels several times over under different
	// layer names (228 kernels, 55 distinct): whatever RunKernels shares
	// between equal kernels, each result must still be what that kernel
	// simulated alone on a machine of its own returns, down to the Kernel it
	// points at.
	if testing.Short() {
		return
	}
	if n, err = networks.New("ResNet"); err != nil {
		t.Fatal(err)
	}
	if ks, err = kernel.Generate(n); err != nil {
		t.Fatal(err)
	}
	sim := fastSim(t, gpusim.ConfigFor(device.PascalGP102()))
	rs, err := sim.RunKernels("ResNet", ks)
	if err != nil {
		t.Fatal(err)
	}
	equalsFreshMachine(t, "ResNet", sim, ks, rs)
}

// equalsFreshMachine requires every kernel's statistics in rs to equal those
// of the same kernel simulated by itself on a newly built machine.
func equalsFreshMachine(t *testing.T, name string, sim *gpusim.Simulator, ks []*kernel.Kernel, rs *gpusim.RunStats) {
	t.Helper()
	for i, k := range ks {
		alone, err := runKernel(sim, k)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Kernels[i].Kernel != k {
			t.Errorf("%s: statistics %d point at kernel %s, want %s", name, i, rs.Kernels[i].Kernel.Name, k.Name)
		}
		if !reflect.DeepEqual(alone, rs.Kernels[i]) {
			t.Errorf("%s: %s in RunKernels differs from the kernel run alone on a fresh machine", name, k.Name)
		}
	}
}

func TestRunKernelsSharesOnlyEqualKernels(t *testing.T) {
	// RunKernels simulates the first of each class of kernels equal in all but
	// Name and LayerName and hands the rest its statistics.  Here one kernel
	// is followed by copies that each differ from it in one field the
	// simulation reads, and by one that differs in the two names only: every
	// one must come back as it simulates alone, and those of the first kind —
	// or the case proves nothing — unlike the original.  The kernel's
	// accesses wrap at the size of the buffer they touch, so each size counts.
	wraps := func(r isa.Region, threadStride int64) isa.AccessPattern {
		return isa.AccessPattern{Region: r, ThreadStride: threadStride, IterStride: 1000, BlockStride: 2000}
	}
	base := &kernel.Kernel{
		Name: "synthetic/base", Network: "synthetic", LayerName: "base", Class: "conv",
		Launch: kernel.LaunchConfig{Grid: [3]int{4, 1, 1}, Block: [3]int{128, 1, 1}, Regs: 8, CmemBytes: 3000},
		Program: kernel.Program{
			Loops: []kernel.Loop{{Trip: 8, Body: []isa.Instruction{
				isa.NewLoad(isa.TypeF32, 1, isa.SpaceGlobal, wraps(isa.RegionInput, 4)),
				isa.NewLoad(isa.TypeF32, 2, isa.SpaceGlobal, wraps(isa.RegionWeights, 132)),
				isa.NewLoad(isa.TypeF32, 3, isa.SpaceGlobal, wraps(isa.RegionBias, 4)),
				isa.NewALU(isa.OpAdd, isa.TypeF32, 4, 1, 2, 3),
			}}},
			Epilogue: []isa.Instruction{isa.NewStore(isa.TypeF32, 4, isa.SpaceGlobal, wraps(isa.RegionOutput, 4))},
		},
		InputBytes: 3000, WeightBytes: 3000, OutputBytes: 3000,
	}
	list := []*kernel.Kernel{base}
	for _, v := range []struct {
		name string
		edit func(k *kernel.Kernel)
	}{
		{"renamed", func(k *kernel.Kernel) {}},
		{"input-bytes", func(k *kernel.Kernel) { k.InputBytes += 4224 }},
		{"weight-bytes", func(k *kernel.Kernel) { k.WeightBytes += 4224 }},
		{"output-bytes", func(k *kernel.Kernel) { k.OutputBytes += 4224 }},
		{"cmem-bytes", func(k *kernel.Kernel) { k.Launch.CmemBytes += 4224 }},
		{"regs", func(k *kernel.Kernel) { k.Launch.Regs++ }},
		{"grid", func(k *kernel.Kernel) { k.Launch.Grid[1]++ }},
		{"loop-trip", func(k *kernel.Kernel) { k.Program.Loops = []kernel.Loop{{Trip: 7, Body: k.Program.Loops[0].Body}} }},
		{"loop-body", func(k *kernel.Kernel) {
			body := slices.Clone(k.Program.Loops[0].Body)
			body[1].Pattern.ThreadStride = 4
			k.Program.Loops = []kernel.Loop{{Trip: 8, Body: body}}
		}},
		{"prologue", func(k *kernel.Kernel) {
			k.Program.Prologue = []isa.Instruction{isa.NewALU(isa.OpAdd, isa.TypeF32, 5, 5, 5)}
		}},
		{"epilogue", func(k *kernel.Kernel) {
			k.Program.Epilogue = []isa.Instruction{isa.NewStore(isa.TypeF32, 4, isa.SpaceGlobal, wraps(isa.RegionOutput, 132))}
		}},
	} {
		k := *base
		k.Name, k.LayerName = "synthetic/"+v.name, v.name
		v.edit(&k)
		list = append(list, &k)
	}
	sim := fastSim(t, gpusim.ConfigFor(device.PascalGP102()))
	rs, err := sim.RunKernels("synthetic", list)
	if err != nil {
		t.Fatal(err)
	}
	equalsFreshMachine(t, "variants", sim, list, rs)
	for i, st := range rs.Kernels[1:] {
		flat := *st
		flat.Kernel = base
		if same := reflect.DeepEqual(&flat, rs.Kernels[0]); same != (i == 0) {
			t.Errorf("%s: statistics equal to the original's = %v", st.Kernel.Name, same)
		}
	}
}
