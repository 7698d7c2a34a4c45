// Package profiler extracts nvprof-style reports from simulation results and
// network descriptions: device memory footprints, register-file utilization,
// operation and data-type mixes, and stall-cycle breakdowns.  The packages
// internal/bench and the public API use it to regenerate the paper's figures.
package profiler

import (
	"fmt"
	"sort"

	"tango/internal/gpusim"
	"tango/internal/isa"
	"tango/internal/networks"
)

// Footprint summarizes the device memory demand of one network (Figure 11).
type Footprint struct {
	// Network is the benchmark name.
	Network string
	// WeightBytes is the pre-trained model size.
	WeightBytes int64
	// ActivationBytes is the total size of per-layer output buffers.
	ActivationBytes int64
	// WorkspaceBytes covers the input image and per-kernel scratch buffers.
	WorkspaceBytes int64
	// TotalBytes is the maximum device memory in use.
	TotalBytes int64
}

// KB returns the footprint in kilobytes, the unit of Figure 11.
func (f Footprint) KB() float64 { return float64(f.TotalBytes) / 1024 }

// MemoryFootprint computes the device memory footprint of a built network.
func MemoryFootprint(n *networks.Network) (Footprint, error) {
	if n == nil || !n.Built() {
		return Footprint{}, fmt.Errorf("profiler: network must be built")
	}
	wb, err := n.WeightBytes()
	if err != nil {
		return Footprint{}, err
	}
	ab, err := n.ActivationBytes()
	if err != nil {
		return Footprint{}, err
	}
	// Workspace: the input buffer plus a CUDA-context-style fixed overhead
	// per resident kernel (device code, launch parameters).
	workspace := int64(len(n.Layers))*4096 + 1<<16
	return Footprint{
		Network:         n.Name,
		WeightBytes:     wb,
		ActivationBytes: ab,
		WorkspaceBytes:  workspace,
		TotalBytes:      wb + ab + workspace,
	}, nil
}

// RegisterUsage summarizes per-SM register-file utilization (Figure 12).
type RegisterUsage struct {
	// Network is the benchmark name.
	Network string
	// MaxAllocatedBytes is the peak per-SM register allocation (compiler
	// allocation x resident threads).
	MaxAllocatedBytes int64
	// MaxLiveBytes is the peak per-SM live register footprint.
	MaxLiveBytes int64
}

// KBAllocated returns the allocation in KB.
func (r RegisterUsage) KBAllocated() float64 { return float64(r.MaxAllocatedBytes) / 1024 }

// KBLive returns the live footprint in KB.
func (r RegisterUsage) KBLive() float64 { return float64(r.MaxLiveBytes) / 1024 }

// Registers computes register-file usage from a simulated run.
func Registers(rs *gpusim.RunStats) RegisterUsage {
	out := RegisterUsage{Network: rs.Network}
	for _, ks := range rs.Kernels {
		alloc := int64(ks.AllocatedRegsPerSM) * 4
		live := int64(ks.LiveRegsPerSM) * 4
		if alloc > out.MaxAllocatedBytes {
			out.MaxAllocatedBytes = alloc
		}
		if live > out.MaxLiveBytes {
			out.MaxLiveBytes = live
		}
	}
	return out
}

// OpShare is one entry of an operation-mix breakdown.
type OpShare struct {
	// Op is the mnemonic.
	Op string
	// Share is the fraction of dynamic instructions.
	Share float64
}

// OpBreakdown returns the per-opcode dynamic instruction shares of a run,
// sorted by descending share (Figures 8 and 9).
func OpBreakdown(rs *gpusim.RunStats) []OpShare {
	totals := rs.OpTotals()
	var sum int64
	for _, c := range totals {
		sum += c
	}
	if sum == 0 {
		return nil
	}
	var out []OpShare
	for op, c := range totals {
		if c == 0 {
			continue
		}
		out = append(out, OpShare{Op: isa.Opcode(op).String(), Share: float64(c) / float64(sum)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// MergedOpBreakdown merges several runs (the "all networks" mix of Figure 9).
func MergedOpBreakdown(runs []*gpusim.RunStats) []OpShare {
	var totals [isa.NumOpcodes]int64
	var sum int64
	for _, rs := range runs {
		t := rs.OpTotals()
		for op, c := range t {
			totals[op] += c
			sum += c
		}
	}
	if sum == 0 {
		return nil
	}
	var out []OpShare
	for op, c := range totals {
		if c == 0 {
			continue
		}
		out = append(out, OpShare{Op: isa.Opcode(op).String(), Share: float64(c) / float64(sum)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// TypeShares maps data-type names to dynamic instruction shares.
type TypeShares map[string]float64

// LayerTypes is the data-type mix of one kernel (one bar of Figure 10).
type LayerTypes struct {
	// Layer is the kernel/layer name in invocation order.
	Layer string
	// Shares is the per-data-type fraction.
	Shares TypeShares
}

// TypeTimeline returns the per-layer data-type breakdown in invocation order.
func TypeTimeline(rs *gpusim.RunStats) []LayerTypes {
	var out []LayerTypes
	for _, ks := range rs.Kernels {
		var sum int64
		for _, c := range ks.TypeCounts {
			sum += c
		}
		if sum == 0 {
			continue
		}
		shares := make(TypeShares)
		for dt, c := range ks.TypeCounts {
			if c == 0 {
				continue
			}
			shares[isa.DType(dt).String()] = float64(c) / float64(sum)
		}
		out = append(out, LayerTypes{Layer: ks.Kernel.LayerName, Shares: shares})
	}
	return out
}

// IntegerShare returns the total share of integer-typed instructions in a run
// (Observation 8).
func IntegerShare(rs *gpusim.RunStats) float64 {
	var integer, total int64
	for _, ks := range rs.Kernels {
		for dt, c := range ks.TypeCounts {
			total += c
			switch isa.DType(dt) {
			case isa.TypeU32, isa.TypeU16, isa.TypeS32, isa.TypeS16:
				integer += c
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(integer) / float64(total)
}

// StallShares maps stall reasons to fractions per layer class (Figure 7).
type StallShares map[gpusim.StallReason]float64

// StallBreakdownByClass normalizes stall counts per layer class.
func StallBreakdownByClass(rs *gpusim.RunStats) map[string]StallShares {
	raw := rs.StallsByClass()
	out := make(map[string]StallShares, len(raw))
	for class, counts := range raw {
		var total int64
		for _, v := range counts {
			total += v
		}
		if total == 0 {
			continue
		}
		shares := make(StallShares)
		for r, v := range counts {
			if v == 0 {
				continue
			}
			shares[gpusim.StallReason(r)] = float64(v) / float64(total)
		}
		out[class] = shares
	}
	return out
}

// StallBreakdownTotal normalizes stall counts over the whole run (the
// per-network summary bars of Figure 7).
func StallBreakdownTotal(rs *gpusim.RunStats) StallShares {
	var counts [gpusim.NumStallReasons]int64
	var total int64
	for _, ks := range rs.Kernels {
		for r, v := range ks.Stalls {
			counts[r] += v
			total += v
		}
	}
	if total == 0 {
		return nil
	}
	out := make(StallShares)
	for r, v := range counts {
		if v == 0 {
			continue
		}
		out[gpusim.StallReason(r)] = float64(v) / float64(total)
	}
	return out
}
