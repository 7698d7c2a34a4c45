package tango

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"tango/internal/device"
	"tango/internal/distcache"
	"tango/internal/gpusim"
	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/par"
	"tango/internal/power"
	"tango/internal/profiler"
	"tango/internal/report"
	"tango/internal/sched"
	"tango/internal/target"
)

// simSettings collects the simulation options: the GPU target, the
// run-store variant (L1, scheduler, sampling) and the native engine's knobs.
type simSettings struct {
	target      target.Target
	variant     target.Variant
	parallelism int
	numerics    nn.Numerics
	numericsSet bool
}

// SimOption configures Simulate.
type SimOption func(*simSettings) error

// WithDevice selects the simulated GPU by any name or alias Targets lists
// for a GPU target: "gp102" (default), "gk210", "tx1", "edge", ...
func WithDevice(name string) SimOption {
	return func(s *simSettings) error {
		t, err := target.Builtin().Lookup(name)
		if err != nil || t.Class() != device.ClassGPU {
			var gpus []string
			for _, t := range target.Builtin().Targets() {
				if t.Class() == device.ClassGPU {
					gpus = append(gpus, t.Name())
				}
			}
			return fmt.Errorf("tango: no GPU target named %q (want %s)", name, strings.Join(gpus, ", "))
		}
		s.target = t
		return nil
	}
}

// WithL1SizeKB sets the per-SM L1 data cache size in kilobytes; zero bypasses
// the L1 entirely (the paper's "No L1" configuration).
func WithL1SizeKB(kb int) SimOption {
	return func(s *simSettings) error {
		if kb < 0 {
			return fmt.Errorf("tango: negative L1 size %d", kb)
		}
		s.variant.L1Bytes, s.variant.L1Set = kb<<10, true
		return nil
	}
}

// WithScheduler selects the warp scheduler: "gto" (default), "lrr" or "tlv".
func WithScheduler(kind string) SimOption {
	return func(s *simSettings) error {
		k := sched.Kind(strings.ToLower(kind))
		if _, err := sched.New(k); err != nil {
			return err
		}
		s.variant.Scheduler = k
		return nil
	}
}

// WithFastSampling selects coarse simulation sampling for quick runs.
func WithFastSampling() SimOption {
	return func(s *simSettings) error {
		s.variant.Sampling = gpusim.FastSampling()
		return nil
	}
}

// WithParallelism simulates the benchmark's independent kernels on n worker
// goroutines, and runs native inference (Classify, ClassifyBatch, Forecast,
// ForecastBatch) on an n-worker compute engine.  n <= 0, like no option,
// selects one worker per CPU (GOMAXPROCS); 1 is serial.  Results are
// identical to a serial run.
func WithParallelism(n int) SimOption {
	return func(s *simSettings) error {
		s.parallelism = n
		return nil
	}
}

// workerCount is the package's one worker-count rule, shared by Sweep,
// Simulate, experiment sessions and native inference: n <= 0 selects one
// worker per available CPU (GOMAXPROCS), any other n is taken as given.
func workerCount(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// WithFastMath selects the fast-numerics inference tier for native runs:
// weights are packed once per benchmark into kernel-native panel layout and
// convolutions / fully-connected layers run FMA multi-accumulator kernels
// (AVX-512 where the CPU supports it).  Outputs are no longer bit-identical
// to the default tier — they agree within a small relative error
// (~1e-3 worst case) and preserve the top-1 class on every built-in network.
// Simulation (Simulate / Sweep) always models the reference numerics and is
// unaffected.  The TANGO_NUMERICS environment variable ("fast", "int8",
// "reference") selects a default tier for runs that pass no numerics option.
func WithFastMath() SimOption { return withNumerics(nn.NumericsFast) }

// WithInt8 selects the int8 quantized inference tier for native runs:
// convolution and fully-connected weights are quantized symmetrically per
// output channel at pack time, activations per layer, with exact int32
// accumulation.  The top-1 class is preserved on every built-in network but
// output probabilities carry quantization error (a few percent); recurrent
// gates have no int8 lowering and use the fast float tier instead.
func WithInt8() SimOption { return withNumerics(nn.NumericsInt8) }

// WithReferenceNumerics forces the default bit-exact tier, overriding a
// TANGO_NUMERICS environment default.
func WithReferenceNumerics() SimOption { return withNumerics(nn.NumericsReference) }

// withNumerics pins the native numerics tier, overriding TANGO_NUMERICS.
func withNumerics(m nn.Numerics) SimOption {
	return func(s *simSettings) error {
		s.numerics, s.numericsSet = m, true
		return nil
	}
}

// WithExhaustiveSimulation disables sampling entirely (only practical for the
// small benchmarks).
func WithExhaustiveSimulation() SimOption {
	return func(s *simSettings) error {
		s.variant.Sampling = gpusim.Exhaustive()
		return nil
	}
}

// LayerSimulation summarizes one kernel of a simulated run.
type LayerSimulation struct {
	Layer        string
	Class        string
	Cycles       int64
	Seconds      float64
	Instructions int64
	PowerWatts   float64
	L2MissRatio  float64
}

// SimulationResult summarizes a simulated network execution.
type SimulationResult struct {
	// Network and Device identify the run.
	Network string
	Device  string
	// Cycles and Seconds are the estimated end-to-end execution cost.
	Cycles  int64
	Seconds float64
	// Instructions is the total dynamic instruction count.
	Instructions int64
	// PeakWatts, AvgWatts and EnergyJoules come from the activity-based power
	// model.
	PeakWatts    float64
	AvgWatts     float64
	EnergyJoules float64
	// CyclesByLayerClass groups cycles by reporting class (Figure 1).
	CyclesByLayerClass map[string]int64
	// StallShares is the nvprof-style stall breakdown (Figure 7).
	StallShares map[string]float64
	// OpShares is the dynamic operation mix (Figure 8).
	OpShares map[string]float64
	// IntegerTypeShare is the fraction of integer-typed instructions
	// (Figure 10 / Observation 8).
	IntegerTypeShare float64
	// L2MissRatio is the overall L2 miss ratio.
	L2MissRatio float64
	// MaxRegisterKBPerSM is the peak per-SM register allocation (Figure 12).
	MaxRegisterKBPerSM float64
	// Layers holds per-kernel details in execution order.
	Layers []LayerSimulation
}

// Dataset is the deterministic result of a characterization sweep: one
// record per (network, target, variant) cell, renderable as a table, CSV or
// JSON.
type Dataset = report.Dataset

// TargetInfo describes one registered accelerator target.
type TargetInfo struct {
	// Name is the canonical registry key, e.g. "gp102" or "pynq".
	Name string
	// Class is the device class ("GPU" or "FPGA").
	Class string
	// Role is the evaluation role, e.g. "Simulator", "Server", "Mobile".
	Role string
	// Description names the modeled hardware.
	Description string
	// Aliases are the alternative lookup names.
	Aliases []string
}

// Targets lists the registered accelerator targets in registry order.
func Targets() []TargetInfo {
	reg := target.Builtin()
	var out []TargetInfo
	for _, t := range reg.Targets() {
		out = append(out, TargetInfo{
			Name:        t.Name(),
			Class:       t.Class().String(),
			Role:        t.Role(),
			Description: t.Description(),
			Aliases:     reg.Aliases(t.Name()),
		})
	}
	return out
}

// SweepConfig configures a multi-device characterization sweep: the cross
// product of networks, targets and configuration variants, every cell derived
// from the shared layer traces.
type SweepConfig struct {
	// Networks restricts the benchmarks (nil = the full seven-network suite).
	Networks []string
	// Targets are registry names or aliases (nil = the GP102 simulator
	// configuration).  See Targets for the registry.
	Targets []string
	// L1SizesKB adds one configuration variant per entry overriding the
	// per-SM L1D size; 0 bypasses the L1.  Empty keeps each target's default.
	L1SizesKB []int
	// Schedulers adds one configuration variant per entry overriding the
	// warp scheduler ("gto", "lrr", "tlv").  Empty keeps the default.
	// When both L1SizesKB and Schedulers are set the sweep runs their cross
	// product.
	Schedulers []string
	// FastSampling selects coarse simulator sampling for quick sweeps.
	FastSampling bool
	// Parallelism fans the sweep cells out over n workers, each cell's
	// simulator on one; n <= 0 (the zero value) selects one per CPU
	// (GOMAXPROCS), 1 is serial.  The dataset is identical for every n.
	Parallelism int
	// CacheDir attaches a persistent on-disk run cache: the sweep uses a
	// private store (empty in-memory tier) over the directory, so a cold
	// sweep populates it and an identical sweep in a fresh process — or
	// with the same CacheDir in this one — replays from disk without
	// running the simulator.  Empty uses the process-wide in-memory store
	// (plus TANGO_CACHE_DIR if set).
	CacheDir string
	// CacheStats, when non-nil, receives a snapshot of the backing store's
	// cache counters after the sweep — Computes says how many cells
	// actually ran a simulator backend (zero for a fully warm sweep).
	CacheStats *CacheStats
}

// CacheStats is a snapshot of a run store's cache traffic; see
// SweepConfig.CacheStats.
type CacheStats = target.StoreStats

// envCacheOnce attaches TANGO_CACHE_DIR to the process-wide store the
// first time a sweep, a Simulate call or an experiment session runs.
// Failures are soft: an unopenable directory leaves the store memory-only.
var envCacheOnce sync.Once

func attachEnvDiskCache() {
	envCacheOnce.Do(func() {
		dir := os.Getenv("TANGO_CACHE_DIR")
		if dir == "" {
			return
		}
		if d, err := distcache.Open(dir); err == nil {
			target.Shared().SetDisk(d)
		}
	})
}

// sweepVariants expands the config's L1/scheduler dimensions into the variant
// list, cross-producting them when both are set.
func sweepVariants(cfg SweepConfig, sampling gpusim.Sampling) ([]target.Variant, error) {
	base := target.DefaultVariant(sampling)
	l1s := []target.Variant{base}
	if len(cfg.L1SizesKB) > 0 {
		l1s = nil
		for _, kb := range cfg.L1SizesKB {
			if kb < 0 {
				return nil, fmt.Errorf("tango: negative L1 size %dKB", kb)
			}
			v := base
			v.L1Bytes, v.L1Set = kb<<10, true
			l1s = append(l1s, v)
		}
	}
	scheds := []sched.Kind{""}
	if len(cfg.Schedulers) > 0 {
		scheds = nil
		for _, name := range cfg.Schedulers {
			k := sched.Kind(strings.ToLower(name))
			if _, err := sched.New(k); err != nil {
				return nil, err
			}
			scheds = append(scheds, k)
		}
	}
	var out []target.Variant
	for _, v := range l1s {
		for _, k := range scheds {
			v.Scheduler = k
			out = append(out, v)
		}
	}
	return out, nil
}

// sweepStore supplies the store backing Sweep and Simulate: the process-wide
// shared store, overridden only by tests that need cold runs.
var sweepStore = target.Shared

// Sweep runs the {networks x targets x variants} characterization matrix and
// returns one dataset record per cell in deterministic sweep order (networks
// outermost, then targets, then variants), regardless of parallelism.
//
// Every cell is derived from the shared layer-trace store: each network is
// lowered once and each effective (target, configuration) run is computed
// once per process, so sweeps compose cheaply with experiment sessions and
// with each other.  FPGA-class targets are configuration-insensitive and run
// their default variant only.
//
// A failing cell aborts the sweep: Sweep returns no dataset and the first
// cell error in sweep order, whatever the parallelism.  Failed cells are
// not cached, so a repeated sweep retries them.
func Sweep(cfg SweepConfig) (*Dataset, error) {
	nets := cfg.Networks
	if len(nets) == 0 {
		nets = networks.Names()
	}
	reg := target.Builtin()
	targetNames := cfg.Targets
	if len(targetNames) == 0 {
		targetNames = []string{"gp102"}
	}
	targets := make([]target.Target, 0, len(targetNames))
	for _, name := range targetNames {
		t, err := reg.Lookup(name)
		if err != nil {
			return nil, err
		}
		targets = append(targets, t)
	}
	sampling := gpusim.DefaultSampling()
	if cfg.FastSampling {
		sampling = gpusim.FastSampling()
	}
	variants, err := sweepVariants(cfg, sampling)
	if err != nil {
		return nil, err
	}

	type sweepCell struct {
		t target.Target
		n string
		v target.Variant
	}
	var cells []sweepCell
	for _, n := range nets {
		for _, t := range targets {
			for _, v := range variants {
				if t.Class() == device.ClassFPGA && v.Key() != variants[0].Key() {
					// The dataflow model ignores every GPU knob; one default
					// cell per network keeps the dataset free of duplicates.
					continue
				}
				cells = append(cells, sweepCell{t: t, n: n, v: v})
			}
		}
	}

	attachEnvDiskCache()
	store := sweepStore()
	if cfg.CacheDir != "" {
		// A private store over the directory: the empty memory tier means
		// every cell consults the disk, which is exactly the fresh-process
		// warm-sweep semantics the cache exists for.
		d, derr := distcache.Open(cfg.CacheDir)
		if derr != nil {
			return nil, fmt.Errorf("tango: sweep cache: %w", derr)
		}
		store = target.NewStore()
		store.SetDisk(d)
	}
	records := make([]report.Record, len(cells))
	err = par.ForEach(workerCount(cfg.Parallelism), len(cells), func(i int) error {
		c := cells[i]
		key := c.v.Key()
		if c.t.Class() == device.ClassFPGA {
			key = "default"
		}
		rs, err := store.Run(c.t, c.n, c.v)
		if err != nil {
			return fmt.Errorf("tango: sweep %s on %s (%s): %w", c.n, c.t.Name(), key, err)
		}
		records[i] = report.Record{
			Network:      rs.Network,
			Target:       rs.Target,
			Class:        rs.Class.String(),
			Variant:      key,
			Cycles:       rs.Cycles,
			Seconds:      rs.Seconds,
			Instructions: rs.Instructions,
			PeakWatts:    rs.PeakWatts,
			AvgWatts:     rs.AvgWatts,
			EnergyJoules: rs.EnergyJoules,
			L2MissRatio:  rs.L2MissRatio,
		}
		return nil
	})
	if cfg.CacheStats != nil {
		*cfg.CacheStats = store.Stats()
	}
	if err != nil {
		return nil, err
	}
	return &Dataset{Records: records}, nil
}

// Simulate runs every kernel of the benchmark on the architecture simulator
// and derives timing, power and memory-system statistics.  The run is one
// cell of the store Sweep and the experiment sessions share: an identical
// call is served from memory for the life of the process, and
// TANGO_CACHE_DIR persists it across processes.
func (b *Benchmark) Simulate(opts ...SimOption) (*SimulationResult, error) {
	settings := simSettings{variant: target.DefaultVariant(gpusim.DefaultSampling())}
	if err := WithDevice("gp102")(&settings); err != nil {
		return nil, err
	}
	for _, opt := range opts {
		if err := opt(&settings); err != nil {
			return nil, err
		}
	}
	v := settings.variant
	v.Workers = workerCount(settings.parallelism)
	attachEnvDiskCache()
	rs, err := sweepStore().Run(settings.target, b.Name(), v)
	if err != nil {
		return nil, err
	}
	gs := rs.GPU
	res := &SimulationResult{
		Network:            rs.Network,
		Device:             settings.target.Description(),
		Cycles:             rs.Cycles,
		Seconds:            rs.Seconds,
		Instructions:       rs.Instructions,
		PeakWatts:          rs.PeakWatts,
		AvgWatts:           rs.AvgWatts,
		EnergyJoules:       rs.EnergyJoules,
		CyclesByLayerClass: gs.CyclesByClass(),
		StallShares:        map[string]float64{},
		OpShares:           map[string]float64{},
		IntegerTypeShare:   profiler.IntegerShare(gs),
		L2MissRatio:        rs.L2MissRatio,
		MaxRegisterKBPerSM: profiler.Registers(gs).KBAllocated(),
	}
	for reason, share := range profiler.StallBreakdownTotal(gs) {
		res.StallShares[reason.String()] = share
	}
	for _, op := range profiler.OpBreakdown(gs) {
		res.OpShares[op.Op] = op.Share
	}
	dev, _ := target.GPUDevice(settings.target)
	pm := power.NewModel(dev)
	for _, ks := range gs.Kernels {
		res.Layers = append(res.Layers, LayerSimulation{
			Layer:        ks.Kernel.LayerName,
			Class:        ks.Kernel.Class,
			Cycles:       ks.Cycles,
			Seconds:      ks.Seconds,
			Instructions: ks.TotalThreadInstructions,
			PowerWatts:   pm.KernelPower(ks).TotalWatts,
			L2MissRatio:  ks.L2.MissRatio(),
		})
	}
	return res, nil
}
