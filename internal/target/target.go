// Package target abstracts the accelerator backends the characterization
// pipeline runs on.  A Target wraps one hardware model — the GPU architecture
// simulator (gpusim), the HLS dataflow FPGA model (fpga) or an edge-GPU
// simulator configuration — behind a single trace-once/derive-many contract:
// a network is lowered to its layer trace exactly once (see Trace and Store)
// and every target derives its timing, power and memory statistics from that
// shared trace under any number of configuration variants.
package target

import (
	"fmt"
	"strings"

	"tango/internal/device"
	"tango/internal/fpga"
	"tango/internal/gpusim"
	"tango/internal/power"
	"tango/internal/sched"
)

// Variant selects one configuration point of a sweep: an optional L1D size
// override, an optional warp-scheduler override and the simulator sampling
// level.  The zero value (plus a sampling level) is the target's default
// configuration.
type Variant struct {
	// L1Bytes overrides the per-SM L1D size when L1Set is true; zero bypasses
	// the L1 entirely.  GPU-only.
	L1Bytes int
	L1Set   bool
	// Scheduler overrides the warp scheduler when non-empty.  GPU-only.
	Scheduler sched.Kind
	// Sampling bounds the detailed simulation.  GPU-only.
	Sampling gpusim.Sampling
	// Workers fans one run's kernels over the simulator's worker pool; zero
	// or one is serial.  Results do not depend on it, so CacheKey ignores
	// it.  GPU-only.
	Workers int
}

// DefaultVariant returns the target-default configuration at the given
// sampling level.
func DefaultVariant(s gpusim.Sampling) Variant {
	return Variant{Sampling: s}
}

// WithL1 returns a copy of the variant with the L1D size overridden.
func (v Variant) WithL1(bytes int) Variant {
	v.L1Bytes = bytes
	v.L1Set = true
	return v
}

// WithScheduler returns a copy of the variant with the scheduler overridden.
func (v Variant) WithScheduler(kind sched.Kind) Variant {
	v.Scheduler = kind
	return v
}

// Key names the variant in sweep output: "default", or its L1 override
// ("nol1", "l1-<kb>kb") and scheduler override ("sched-<kind>") joined by
// "+".  It does not participate in result caching: two variants that
// resolve to the same effective configuration share one run.
func (v Variant) Key() string {
	var parts []string
	switch {
	case v.L1Set && v.L1Bytes == 0:
		parts = append(parts, "nol1")
	case v.L1Set:
		parts = append(parts, fmt.Sprintf("l1-%dkb", v.L1Bytes>>10))
	}
	if v.Scheduler != "" {
		parts = append(parts, "sched-"+string(v.Scheduler))
	}
	if len(parts) == 0 {
		return "default"
	}
	return strings.Join(parts, "+")
}

// RunStats is the backend-independent result of running one trace on one
// target under one variant.  The summary fields are populated for every
// target class; the GPU and FPGA payloads carry the full backend detail for
// figure projections that need stalls, opcode mixes or per-layer costs.
type RunStats struct {
	// Network and Target identify the run.
	Network string
	Target  string
	// Class is the target's device class.
	Class device.Class

	// Cycles and Seconds are the end-to-end execution cost.  Cycles is zero
	// for targets without a core clock domain (the FPGA dataflow model).
	Cycles  int64
	Seconds float64
	// Instructions is the total dynamic instruction count (GPU targets).
	Instructions int64
	// PeakWatts, AvgWatts and EnergyJoules come from the target's power
	// model.  GPU targets integrate per-kernel energy; the FPGA model follows
	// the paper's peak-power-times-time methodology.
	PeakWatts    float64
	AvgWatts     float64
	EnergyJoules float64
	// L2MissRatio is the overall L2 miss ratio (GPU targets).
	L2MissRatio float64

	// GPU holds the simulator statistics for GPU-class targets.
	GPU *gpusim.RunStats
	// FPGA holds the dataflow-model estimate for FPGA-class targets.
	FPGA *fpga.Result
}

// Target is one accelerator backend of the characterization pipeline.
type Target interface {
	// Name is the canonical registry key, e.g. "gp102" or "pynq".
	Name() string
	// Class is the device class (GPU or FPGA).
	Class() device.Class
	// Role describes the evaluation role, e.g. "Simulator", "Server",
	// "Mobile" or "Embedded FPGA".
	Role() string
	// Description names the modeled hardware.
	Description() string
	// CacheKey canonicalizes a variant to the knobs that affect this
	// target's results, so equivalent variants share one cached run (the
	// FPGA model, for example, is insensitive to every GPU-only knob).
	CacheKey(v Variant) string
	// Run derives the target's statistics from a shared layer trace.
	Run(tr *Trace, v Variant) (*RunStats, error)
}

// gpuTarget simulates a trace on one GPU configuration via gpusim and derives
// power from the activity-based model.
type gpuTarget struct {
	name string
	dev  device.GPU
}

// NewGPU wraps a GPU device description as a simulation target.  Its role
// is the device's own (device.GPU.Role).
func NewGPU(name string, dev device.GPU) Target {
	return &gpuTarget{name: name, dev: dev}
}

// GPUDevice returns the device a GPU-class target simulates, the one its
// runs' timing and power come from; ok is false for every other target.
func GPUDevice(t Target) (dev device.GPU, ok bool) {
	g, ok := t.(*gpuTarget)
	if !ok {
		return device.GPU{}, false
	}
	return g.dev, true
}

func (g *gpuTarget) Name() string        { return g.name }
func (g *gpuTarget) Class() device.Class { return device.ClassGPU }
func (g *gpuTarget) Role() string        { return g.dev.Role }
func (g *gpuTarget) Description() string { return g.dev.Name }

// config resolves a variant to the simulator configuration.
func (g *gpuTarget) config(v Variant) gpusim.Config {
	cfg := gpusim.ConfigFor(g.dev).WithSampling(v.Sampling).WithParallelism(v.Workers)
	if v.L1Set {
		cfg = cfg.WithL1Size(v.L1Bytes)
	}
	if v.Scheduler != "" {
		cfg = cfg.WithScheduler(v.Scheduler)
	}
	return cfg
}

// CacheKey canonicalizes the variant against the device defaults, so e.g. an
// explicit 64KB L1 override and the default configuration of a device whose
// L1D is 64KB resolve to the same run.  The key embeds the full device
// description (not just its name), so targets wrapping same-named but
// differently-parameterized devices never share runs.
func (g *gpuTarget) CacheKey(v Variant) string {
	l1 := g.dev.L1DBytes
	if v.L1Set {
		l1 = v.L1Bytes
	}
	kind := v.Scheduler
	if kind == "" {
		kind = sched.GTO
	}
	return fmt.Sprintf("dev=%+v|l1=%d|sched=%s|ctas=%d|iters=%d",
		g.dev, l1, kind, v.Sampling.MaxCTAs, v.Sampling.MaxLoopIters)
}

func (g *gpuTarget) Run(tr *Trace, v Variant) (*RunStats, error) {
	sim, err := gpusim.New(g.config(v))
	if err != nil {
		return nil, err
	}
	rs, err := sim.RunKernels(tr.Network, tr.Kernels)
	if err != nil {
		return nil, err
	}
	np := power.NewModel(g.dev).NetworkPower(rs)
	out := &RunStats{
		Network:      tr.Network,
		Target:       g.name,
		Class:        device.ClassGPU,
		Cycles:       rs.TotalCycles(),
		Seconds:      rs.TotalSeconds(),
		PeakWatts:    np.PeakWatts,
		AvgWatts:     np.AvgWatts,
		EnergyJoules: np.TotalEnergyJoules,
		GPU:          rs,
	}
	var l2, l2Miss int64
	for _, ks := range rs.Kernels {
		out.Instructions += ks.TotalThreadInstructions
		l2 += ks.L2.Accesses
		l2Miss += ks.L2.Misses + ks.L2.MergedMiss
	}
	if l2 > 0 {
		out.L2MissRatio = float64(l2Miss) / float64(l2)
	}
	return out, nil
}

// fpgaTarget estimates a trace's network on the HLS dataflow FPGA model.
type fpgaTarget struct {
	name  string
	model *fpga.Model
}

// NewFPGA wraps an FPGA model configuration as a target.
func NewFPGA(name string, cfg fpga.Config) (Target, error) {
	m, err := fpga.New(cfg)
	if err != nil {
		return nil, err
	}
	return &fpgaTarget{name: name, model: m}, nil
}

func (f *fpgaTarget) Name() string        { return f.name }
func (f *fpgaTarget) Class() device.Class { return device.ClassFPGA }
func (f *fpgaTarget) Role() string        { return "Embedded FPGA" }
func (f *fpgaTarget) Description() string { return f.model.Config().Board.Name }

// CacheKey ignores every GPU-only knob: the dataflow model has no L1, no warp
// scheduler and no sampling, so all variants share one run per network.
func (f *fpgaTarget) CacheKey(Variant) string { return "fpga" }

func (f *fpgaTarget) Run(tr *Trace, _ Variant) (*RunStats, error) {
	res, err := f.model.EstimateNetwork(tr.Net)
	if err != nil {
		return nil, err
	}
	return &RunStats{
		Network:      tr.Network,
		Target:       f.name,
		Class:        device.ClassFPGA,
		Seconds:      res.Seconds,
		PeakWatts:    res.PeakWatts,
		AvgWatts:     res.AvgWatts,
		EnergyJoules: res.EnergyJoules,
		FPGA:         res,
	}, nil
}
