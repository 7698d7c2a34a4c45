// Package power implements an activity-based GPU power model in the spirit
// of GPUWattch: every micro-architectural event reported by the simulator
// (register-file accesses, pipeline operations, cache and DRAM accesses,
// instruction fetches) is charged a per-event energy, static and idle-core
// power are added, and per-kernel power is derived from the event rates over
// the kernel's estimated execution time.
//
// Peak power additionally scales with the kernel's achievable occupancy —
// kernels too small to fill the device's SMs cannot light up the whole chip —
// which reproduces the paper's Observation 3 (bigger layers draw higher peak
// power).
package power

import (
	"fmt"

	"tango/internal/device"
	"tango/internal/gpusim"
)

// Component identifies one power consumer, following the GPUWattch breakdown
// the paper plots in Figure 5.
type Component uint8

// Power components.
const (
	CompIBuffer      Component = iota // IBP: instruction buffer
	CompICache                        // ICP: instruction cache
	CompL1D                           // DCP: L1 data cache
	CompTexture                       // TCP: texture cache
	CompConst                         // CCP: constant cache
	CompShared                        // SHRDP: shared memory
	CompRegFile                       // RFP: register file
	CompSP                            // SPP: integer/simple pipelines
	CompSFU                           // SFUP: special function units
	CompFPU                           // FPUP: floating-point pipelines
	CompSched                         // SCHEDP: warp schedulers
	CompL2                            // L2CP: L2 cache
	CompMC                            // MCP: memory controllers
	CompNOC                           // NOCP: on-chip interconnect
	CompDRAM                          // DRAMP: device memory
	CompPipeline                      // PIPEP: pipeline registers / control
	CompIdleCore                      // IDLE_COREP: idle SM power
	CompConstDynamic                  // CONST_DYNAMICP: constant dynamic overhead
	// NumComponents is the number of defined components.
	NumComponents
)

var componentNames = [NumComponents]string{
	CompIBuffer:      "IBP",
	CompICache:       "ICP",
	CompL1D:          "DCP",
	CompTexture:      "TCP",
	CompConst:        "CCP",
	CompShared:       "SHRDP",
	CompRegFile:      "RFP",
	CompSP:           "SPP",
	CompSFU:          "SFUP",
	CompFPU:          "FPUP",
	CompSched:        "SCHEDP",
	CompL2:           "L2CP",
	CompMC:           "MCP",
	CompNOC:          "NOCP",
	CompDRAM:         "DRAMP",
	CompPipeline:     "PIPEP",
	CompIdleCore:     "IDLE_COREP",
	CompConstDynamic: "CONST_DYNAMICP",
}

// String returns the GPUWattch-style component label.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("comp(%d)", uint8(c))
}

// Components lists all components in display order.
func Components() []Component {
	out := make([]Component, NumComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Energies holds per-event dynamic energies in nanojoules.
type Energies struct {
	RegAccess   float64 // per operand read/write per lane
	SPOp        float64 // per lane
	FPUOp       float64 // per lane
	SFUOp       float64 // per lane
	SharedAcc   float64 // per lane
	ConstAcc    float64 // per warp access
	InstFetch   float64 // per fetch group
	SchedIssue  float64 // per issued instruction
	PipelineOp  float64 // per issued instruction
	L1Access    float64 // per 128B transaction
	L2Access    float64 // per 128B transaction
	NOCTransfer float64 // per L2 transaction
	MCRequest   float64 // per DRAM request
	DRAMAccess  float64 // per DRAM request (128B)
}

// DefaultEnergies returns the calibration used for the GPGPU-Sim-class
// results.  Values are effective energies (they fold in clocking and leakage
// overheads proportional to activity) chosen so that full-occupancy CNN
// kernels land in the power envelope the paper reports for a discrete GPU.
func DefaultEnergies() Energies {
	return Energies{
		RegAccess:   0.030,
		SPOp:        0.015,
		FPUOp:       0.030,
		SFUOp:       0.100,
		SharedAcc:   0.020,
		ConstAcc:    0.015,
		InstFetch:   0.150,
		SchedIssue:  0.010,
		PipelineOp:  0.020,
		L1Access:    0.300,
		L2Access:    0.800,
		NOCTransfer: 0.350,
		MCRequest:   0.400,
		DRAMAccess:  3.000,
	}
}

// Breakdown is the per-component power of one kernel.
type Breakdown struct {
	// Kernel names the kernel.
	Kernel string
	// Class is the kernel's reporting class.
	Class string
	// Watts holds per-component power.
	Watts [NumComponents]float64
	// TotalWatts is the sum over components.
	TotalWatts float64
	// EnergyJoules is TotalWatts times Seconds.
	EnergyJoules float64
	// Seconds is the kernel's estimated execution time.
	Seconds float64
	// Occupancy is the fraction of the device's warp slots the kernel can
	// fill (bounds dynamic power).
	Occupancy float64
}

// Model computes power for kernels simulated on a particular device.
type Model struct {
	dev      device.GPU
	energies Energies
}

// NewModel returns a power model for the device with default calibration.
func NewModel(dev device.GPU) *Model {
	return &Model{dev: dev, energies: DefaultEnergies()}
}

// NewModelWithEnergies returns a power model with explicit calibration.
func NewModelWithEnergies(dev device.GPU, e Energies) *Model {
	return &Model{dev: dev, energies: e}
}

// Device returns the modelled device.
func (m *Model) Device() device.GPU { return m.dev }

// occupancy returns the fraction of the device's warp capacity the kernel can
// keep resident.
func (m *Model) occupancy(ks *gpusim.KernelStats) float64 {
	capacity := float64(m.dev.SMs * m.dev.MaxWarpsPerSM)
	if capacity <= 0 {
		return 1
	}
	warps := float64((ks.Kernel.Launch.TotalThreads() + 31) / 32)
	occ := warps / capacity
	if occ > 1 {
		occ = 1
	}
	if occ < 0.02 {
		occ = 0.02
	}
	return occ
}

// KernelPower computes the power breakdown of one simulated kernel.
func (m *Model) KernelPower(ks *gpusim.KernelStats) Breakdown {
	e := m.energies
	b := Breakdown{
		Kernel:  ks.Kernel.Name,
		Class:   ks.Kernel.Class,
		Seconds: ks.Seconds,
	}
	if b.Seconds <= 0 {
		b.Seconds = 1e-9
	}
	occ := m.occupancy(ks)
	b.Occupancy = occ

	a := ks.Activity
	nJ := func(events int64, perEvent float64) float64 { return float64(events) * perEvent }

	// Dynamic energy per component in nanojoules.
	var energy [NumComponents]float64
	energy[CompRegFile] = nJ(a.RegReads+a.RegWrites, e.RegAccess)
	energy[CompSP] = nJ(a.SPOps, e.SPOp)
	energy[CompFPU] = nJ(a.FPUOps, e.FPUOp)
	energy[CompSFU] = nJ(a.SFUOps, e.SFUOp)
	energy[CompShared] = nJ(a.SharedAccesses, e.SharedAcc)
	energy[CompConst] = nJ(a.ConstAccesses, e.ConstAcc)
	energy[CompICache] = nJ(a.InstFetches, e.InstFetch) * 0.6
	energy[CompIBuffer] = nJ(a.InstFetches, e.InstFetch) * 0.4
	energy[CompSched] = nJ(a.IssuedInstructions, e.SchedIssue)
	energy[CompPipeline] = nJ(a.IssuedInstructions, e.PipelineOp)
	energy[CompL1D] = nJ(ks.L1.Accesses, e.L1Access)
	energy[CompTexture] = 0
	energy[CompL2] = nJ(ks.L2.Accesses, e.L2Access)
	energy[CompNOC] = nJ(ks.L2.Accesses, e.NOCTransfer)
	energy[CompMC] = nJ(ks.DRAM.Requests, e.MCRequest)
	energy[CompDRAM] = nJ(ks.DRAM.Requests, e.DRAMAccess)

	// Convert to watts over the kernel's duration, bounded by occupancy: a
	// kernel that cannot fill the device cannot light up all of its SMs.
	for c := range energy {
		b.Watts[c] = energy[c] * 1e-9 / b.Seconds * occ
	}

	// Static contributions.  Converting the product rounds it, so no GOARCH
	// may fuse it into the subtraction.
	b.Watts[CompIdleCore] = m.dev.IdleWatts * (1 - float64(0.5*occ))
	b.Watts[CompConstDynamic] = 0.08 * m.dev.TDPWatts * occ

	total := 0.0
	for _, w := range b.Watts {
		total += w
	}
	// The board power limit caps sustained draw.
	if total > m.dev.TDPWatts {
		scale := m.dev.TDPWatts / total
		for c := range b.Watts {
			b.Watts[c] *= scale
		}
		total = m.dev.TDPWatts
	}
	b.TotalWatts = total
	b.EnergyJoules = total * b.Seconds
	return b
}

// NetworkPower aggregates per-kernel power over a network run.
type NetworkPower struct {
	// Network is the benchmark name.
	Network string
	// PerKernel holds per-kernel breakdowns in layer order.
	PerKernel []Breakdown
	// PeakWatts is the highest per-kernel total power (Figure 3).
	PeakWatts float64
	// PeakKernel names the kernel drawing the peak power.
	PeakKernel string
	// AvgWatts is the time-weighted average power.
	AvgWatts float64
	// TotalEnergyJoules is the total energy of one inference.
	TotalEnergyJoules float64
	// TotalSeconds is the summed kernel time.
	TotalSeconds float64
	// ByClassWatts is the average power per layer class (Figure 4).
	ByClassWatts map[string]float64
	// ByComponentWatts is the time-weighted average per component (Figure 5).
	ByComponentWatts [NumComponents]float64
}

// NetworkPower computes power statistics for a whole simulated network.
func (m *Model) NetworkPower(rs *gpusim.RunStats) NetworkPower {
	np := NetworkPower{
		Network:      rs.Network,
		ByClassWatts: make(map[string]float64),
	}
	classEnergy := make(map[string]float64)
	classTime := make(map[string]float64)
	for _, ks := range rs.Kernels {
		b := m.KernelPower(ks)
		np.PerKernel = append(np.PerKernel, b)
		if b.TotalWatts > np.PeakWatts {
			np.PeakWatts = b.TotalWatts
			np.PeakKernel = b.Kernel
		}
		np.TotalEnergyJoules += b.EnergyJoules
		np.TotalSeconds += b.Seconds
		classEnergy[b.Class] += b.EnergyJoules
		classTime[b.Class] += b.Seconds
		for c := range b.Watts {
			// The conversion keeps the product unfused on every GOARCH.
			np.ByComponentWatts[c] += float64(b.Watts[c] * b.Seconds)
		}
	}
	if np.TotalSeconds > 0 {
		np.AvgWatts = np.TotalEnergyJoules / np.TotalSeconds
		for c := range np.ByComponentWatts {
			np.ByComponentWatts[c] /= np.TotalSeconds
		}
	}
	for class, e := range classEnergy {
		if classTime[class] > 0 {
			np.ByClassWatts[class] = e / classTime[class]
		}
	}
	return np
}
