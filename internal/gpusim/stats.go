package gpusim

import (
	"tango/internal/cache"
	"tango/internal/dram"
	"tango/internal/isa"
	"tango/internal/kernel"
)

// StallReason classifies why a warp could not issue in a cycle, following
// nvprof's issue-stall-reason categories (Figure 7 of the paper).
type StallReason uint8

// Stall reasons.
const (
	StallInstFetch StallReason = iota
	StallExecDependency
	StallMemoryDependency
	StallTexture
	StallSync
	StallOther
	StallPipeBusy
	StallConstMemDependency
	StallMemoryThrottle
	StallNotSelected
	// NumStallReasons is the number of defined stall reasons.
	NumStallReasons
)

var stallNames = [NumStallReasons]string{
	StallInstFetch:          "inst_fetch",
	StallExecDependency:     "exec_dependency",
	StallMemoryDependency:   "memory_dependency",
	StallTexture:            "texture",
	StallSync:               "sync",
	StallOther:              "other",
	StallPipeBusy:           "pipe_busy",
	StallConstMemDependency: "constant_memory_dependency",
	StallMemoryThrottle:     "memory_throttle",
	StallNotSelected:        "not_selected",
}

// String returns the nvprof-style stall reason name.
func (s StallReason) String() string {
	if int(s) < len(stallNames) {
		return stallNames[s]
	}
	return "unknown"
}

// StallReasons lists all reasons in display order.
func StallReasons() []StallReason {
	out := make([]StallReason, NumStallReasons)
	for i := range out {
		out[i] = StallReason(i)
	}
	return out
}

// Activity counts the micro-architectural events the power model charges
// energy for.  Counts are scaled to the full kernel.
type Activity struct {
	// IssuedInstructions is the number of thread-level instructions executed.
	IssuedInstructions int64
	// RegReads and RegWrites are register-file operand accesses.
	RegReads  int64
	RegWrites int64
	// SPOps, FPUOps and SFUOps are executions per pipeline.
	SPOps  int64
	FPUOps int64
	SFUOps int64
	// SharedAccesses and ConstAccesses are on-chip SRAM accesses.
	SharedAccesses int64
	ConstAccesses  int64
	// InstFetches counts instruction-cache fetch groups.
	InstFetches int64
	// GlobalAccesses counts global-memory load/store warp transactions.
	GlobalAccesses int64
}

// Add accumulates other into a.
func (a *Activity) Add(other Activity) {
	a.IssuedInstructions += other.IssuedInstructions
	a.RegReads += other.RegReads
	a.RegWrites += other.RegWrites
	a.SPOps += other.SPOps
	a.FPUOps += other.FPUOps
	a.SFUOps += other.SFUOps
	a.SharedAccesses += other.SharedAccesses
	a.ConstAccesses += other.ConstAccesses
	a.InstFetches += other.InstFetches
	a.GlobalAccesses += other.GlobalAccesses
}

// Scale multiplies every counter by f.
func (a *Activity) Scale(f float64) {
	a.IssuedInstructions = int64(float64(a.IssuedInstructions) * f)
	a.RegReads = int64(float64(a.RegReads) * f)
	a.RegWrites = int64(float64(a.RegWrites) * f)
	a.SPOps = int64(float64(a.SPOps) * f)
	a.FPUOps = int64(float64(a.FPUOps) * f)
	a.SFUOps = int64(float64(a.SFUOps) * f)
	a.SharedAccesses = int64(float64(a.SharedAccesses) * f)
	a.ConstAccesses = int64(float64(a.ConstAccesses) * f)
	a.InstFetches = int64(float64(a.InstFetches) * f)
	a.GlobalAccesses = int64(float64(a.GlobalAccesses) * f)
}

// KernelStats is the result of simulating one kernel.
type KernelStats struct {
	// Kernel is the simulated kernel.
	Kernel *kernel.Kernel

	// Cycles is the estimated execution time of the full kernel in core
	// cycles on the configured device.
	Cycles int64
	// Seconds is Cycles divided by the device core clock.
	Seconds float64

	// SimCycles and SimThreadInstructions describe the detailed (sampled)
	// portion of the simulation.
	SimCycles             int64
	SimThreadInstructions int64
	// ScaleFactor is total dynamic thread instructions / simulated ones.
	ScaleFactor float64

	// TotalThreadInstructions is the full kernel's dynamic instruction count.
	TotalThreadInstructions int64

	// OpCounts and TypeCounts are exact dynamic counts for the full kernel,
	// derived analytically from the thread program.
	OpCounts   [isa.NumOpcodes]int64
	TypeCounts [isa.NumDTypes]int64

	// Stalls attributes issue-slot stall cycles to nvprof-style reasons
	// (sampled, not scaled; use for relative breakdowns).
	Stalls [NumStallReasons]int64

	// L1, L2 and DRAM are memory system statistics scaled to the full kernel.
	L1   cache.Stats
	L2   cache.Stats
	DRAM dram.Stats

	// Activity holds the power-model event counts scaled to the full kernel.
	Activity Activity

	// Occupancy and register usage.
	MaxResidentWarpsPerSM int
	AllocatedRegsPerSM    int // registers allocated per SM (allocated regs/thread x resident threads)
	LiveRegsPerSM         int // registers actually referenced per SM
}

// RunStats aggregates the simulation of a whole network.
type RunStats struct {
	// Network is the benchmark name.
	Network string
	// Kernels holds per-kernel statistics in layer order.
	Kernels []*KernelStats
}

// TotalCycles sums the estimated cycles of all kernels.
func (r *RunStats) TotalCycles() int64 {
	var t int64
	for _, k := range r.Kernels {
		t += k.Cycles
	}
	return t
}

// TotalSeconds sums the estimated execution time of all kernels.
func (r *RunStats) TotalSeconds() float64 {
	var t float64
	for _, k := range r.Kernels {
		t += k.Seconds
	}
	return t
}

// CyclesByClass groups estimated cycles by the kernels' reporting class.
func (r *RunStats) CyclesByClass() map[string]int64 {
	out := make(map[string]int64)
	for _, k := range r.Kernels {
		out[k.Kernel.Class] += k.Cycles
	}
	return out
}

// OpTotals sums dynamic opcode counts across all kernels.
func (r *RunStats) OpTotals() [isa.NumOpcodes]int64 {
	var out [isa.NumOpcodes]int64
	for _, k := range r.Kernels {
		for op, c := range k.OpCounts {
			out[op] += c
		}
	}
	return out
}

// StallsByClass aggregates stall-reason counts by kernel class.
func (r *RunStats) StallsByClass() map[string][NumStallReasons]int64 {
	out := make(map[string][NumStallReasons]int64)
	for _, k := range r.Kernels {
		acc := out[k.Kernel.Class]
		for i, v := range k.Stalls {
			acc[i] += v
		}
		out[k.Kernel.Class] = acc
	}
	return out
}

// L2ByClass aggregates L2 statistics by kernel class.
func (r *RunStats) L2ByClass() map[string]cache.Stats {
	out := make(map[string]cache.Stats)
	for _, k := range r.Kernels {
		acc := out[k.Kernel.Class]
		acc.Add(k.L2)
		out[k.Kernel.Class] = acc
	}
	return out
}
