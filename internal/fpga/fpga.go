// Package fpga models the execution of the benchmark networks on the Xilinx
// PynQ-Z1 board (Table IV) the paper evaluates its OpenCL kernels on.
//
// The model follows the structure of a Vivado HLS dataflow implementation:
// each layer is mapped to a multiply-accumulate pipeline built from the
// fabric's DSP slices running at the programmable-logic clock.  The board's
// 630KB of block RAM cannot hold the working set of most CNN layers, so
// layers are partitioned into sub-kernels that are loaded and executed over
// multiple iterations (the paper notes the same limitation); every partition
// pays a reload penalty over the board's DDR interface plus a fixed
// reconfiguration/code-load overhead.  Power is a small static draw plus a
// dynamic component proportional to DSP utilization, giving the low peak
// power but longer execution times the paper measures relative to the TX1.
package fpga

import (
	"fmt"

	"tango/internal/device"
	"tango/internal/networks"
)

// Config tunes the HLS dataflow model.
type Config struct {
	// Board is the FPGA platform.
	Board device.FPGA
	// DSPEfficiency is the fraction of DSP slices doing useful MACs per cycle.
	DSPEfficiency float64
	// DDRBandwidthMBs is the effective DDR bandwidth for streaming weights
	// and activations.
	DDRBandwidthMBs float64
	// PartitionOverheadSeconds is the fixed cost of loading one sub-kernel
	// (bitstream region / code load, the "slower code loading time" the paper
	// reports).
	PartitionOverheadSeconds float64
	// DynamicWattsPerDSP is the dynamic power of one active DSP slice.
	DynamicWattsPerDSP float64
}

// DefaultConfig returns the PynQ-Z1 model used in the experiments.
func DefaultConfig() Config {
	return Config{
		Board:                    device.PynQZ1(),
		DSPEfficiency:            0.85,
		DDRBandwidthMBs:          600,
		PartitionOverheadSeconds: 150e-6,
		DynamicWattsPerDSP:       0.013,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Board.Validate(); err != nil {
		return err
	}
	if c.DSPEfficiency <= 0 || c.DSPEfficiency > 1 {
		return fmt.Errorf("fpga: DSP efficiency must be in (0, 1], got %v", c.DSPEfficiency)
	}
	if c.DDRBandwidthMBs <= 0 || c.PartitionOverheadSeconds < 0 || c.DynamicWattsPerDSP <= 0 {
		return fmt.Errorf("fpga: bandwidth, overhead and per-DSP power must be positive")
	}
	return nil
}

// LayerCost is the estimated cost of one layer on the FPGA.
type LayerCost struct {
	// Layer is the source layer name.
	Layer string
	// Class is the reporting class.
	Class string
	// Ops is the number of multiply-accumulate-equivalent operations.
	Ops int64
	// WorkingSetBytes is weights + input + output of the layer.
	WorkingSetBytes int64
	// Partitions is the number of sub-kernels the layer is split into to fit
	// the board's BRAM.
	Partitions int
	// Seconds is the estimated execution time including reload overheads.
	Seconds float64
}

// Result is the estimated execution of a whole network on the FPGA.
type Result struct {
	// Network is the benchmark name.
	Network string
	// Layers holds per-layer costs in layer order.
	Layers []LayerCost
	// Seconds is the total execution time.
	Seconds float64
	// PeakWatts is the peak board power.
	PeakWatts float64
	// AvgWatts is the average board power.
	AvgWatts float64
	// EnergyJoules is PeakWatts x Seconds, matching the paper's
	// peak-power-times-time energy methodology for Figure 6.
	EnergyJoules float64
	// TotalPartitions counts sub-kernel launches.
	TotalPartitions int
}

// Model estimates network execution on the FPGA.
type Model struct {
	cfg Config
}

// New constructs a model, validating the configuration.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg}, nil
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// layerOps estimates multiply-accumulate-equivalent operations of a layer.
func layerOps(n *networks.Network, li int) int64 {
	l := &n.Layers[li]
	inShape := n.InputShape
	if l.Inputs[0] != networks.InputRef {
		inShape = n.Layers[l.Inputs[0]].OutShape
	}
	outElems := int64(1)
	for _, d := range l.OutShape {
		outElems *= int64(d)
	}
	switch l.Type {
	case networks.LayerConv:
		return l.Conv.MACs(inShape[1], inShape[2])
	case networks.LayerFC:
		inElems := int64(1)
		for _, d := range inShape {
			inElems *= int64(d)
		}
		return inElems * int64(l.FCOut)
	case networks.LayerPool:
		return outElems * int64(l.Pool.KernelH*l.Pool.KernelW)
	case networks.LayerLRN:
		return outElems * int64(l.LRN.LocalSize*2)
	case networks.LayerGlobalPool:
		inElems := int64(1)
		for _, d := range inShape {
			inElems *= int64(d)
		}
		return inElems
	case networks.LayerLSTM:
		h, in := int64(l.Hidden), int64(l.InSize)
		return 4 * (h*in + h*h) * int64(maxInt(n.SeqLen, 1))
	case networks.LayerGRU:
		h, in := int64(l.Hidden), int64(l.InSize)
		return 3 * (h*in + h*h) * int64(maxInt(n.SeqLen, 1))
	default:
		// Element-wise layers: one op per output element.
		return outElems
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// layerWorkingSet returns weights + input + output bytes of a layer.
func layerWorkingSet(n *networks.Network, li int, weightBytes map[string]int64) int64 {
	l := &n.Layers[li]
	inElems := int64(0)
	for idx := range l.Inputs {
		shape := n.InputShape
		if l.Inputs[idx] != networks.InputRef {
			shape = n.Layers[l.Inputs[idx]].OutShape
		}
		e := int64(1)
		for _, d := range shape {
			e *= int64(d)
		}
		inElems += e
	}
	outElems := int64(1)
	for _, d := range l.OutShape {
		outElems *= int64(d)
	}
	return inElems*4 + outElems*4 + weightBytes[l.Name]
}

// EstimateNetwork estimates the execution of a built network on the FPGA.
func (m *Model) EstimateNetwork(n *networks.Network) (*Result, error) {
	if n == nil || !n.Built() {
		return nil, fmt.Errorf("fpga: network must be built")
	}
	specs, err := n.WeightSpecs()
	if err != nil {
		return nil, err
	}
	weightBytes := make(map[string]int64)
	for _, s := range specs {
		weightBytes[s.Layer] += int64(s.Count) * 4
	}

	cfg := m.cfg
	macsPerSecond := float64(cfg.Board.DSPSlices) * cfg.DSPEfficiency * float64(cfg.Board.FabricClockMHz) * 1e6
	ddrBytesPerSecond := cfg.DDRBandwidthMBs * 1e6
	res := &Result{Network: n.Name}

	maxDSPUtil := 0.0
	for li := range n.Layers {
		l := &n.Layers[li]
		ops := layerOps(n, li)
		ws := layerWorkingSet(n, li, weightBytes)
		partitions := 1
		if ws > int64(cfg.Board.BRAMBytes) {
			partitions = int(ws/int64(cfg.Board.BRAMBytes)) + 1
		}
		compute := float64(ops) / macsPerSecond
		transfer := float64(ws) / ddrBytesPerSecond
		// The outer conversion rounds the product, so no GOARCH may fuse it
		// into the sum below: the model gives the same bits everywhere.
		overhead := float64(float64(partitions) * cfg.PartitionOverheadSeconds)
		seconds := compute + transfer + overhead

		// DSP utilization of the layer: MAC-heavy layers use the whole array.
		util := 1.0
		if ops < int64(cfg.Board.DSPSlices) {
			util = float64(ops) / float64(cfg.Board.DSPSlices)
		}
		if util > maxDSPUtil {
			maxDSPUtil = util
		}

		res.Layers = append(res.Layers, LayerCost{
			Layer:           l.Name,
			Class:           l.EffectiveClass(),
			Ops:             ops,
			WorkingSetBytes: ws,
			Partitions:      partitions,
			Seconds:         seconds,
		})
		res.Seconds += seconds
		res.TotalPartitions += partitions
	}

	// Rounded products again, so neither sum below is fused.
	dynamic := float64(maxDSPUtil * float64(cfg.Board.DSPSlices) * cfg.DynamicWattsPerDSP)
	res.PeakWatts = cfg.Board.IdleWatts + dynamic
	if res.PeakWatts > cfg.Board.PeakWatts {
		res.PeakWatts = cfg.Board.PeakWatts
	}
	res.AvgWatts = cfg.Board.IdleWatts + float64(0.6*dynamic)
	// The paper computes energy as peak power times total execution time
	// (a Wattsup meter cannot integrate energy directly).
	res.EnergyJoules = res.PeakWatts * res.Seconds
	return res, nil
}
