package bench

import (
	"fmt"
	"slices"

	"tango/internal/core"
	"tango/internal/report"
	"tango/internal/target"
)

// table1 reproduces Table I: input data, pre-trained model provenance and
// output of every benchmark.
func table1(g grid) (*report.Table, error) {
	t := &report.Table{
		Title:   "Input/Output and Pre-trained Models used by networks (Table I)",
		Columns: []string{"Network", "Input Data", "Pre-trained Model", "Output"},
	}
	for _, r := range core.ReferenceInputs() {
		if slices.Contains(g.nets, r.Network) {
			t.AddRow(r.Network, r.InputData, r.Pretrained, r.Output)
		}
	}
	t.AddNote("pre-trained model files are replaced by deterministic synthetic weights with reference shapes")
	return t, nil
}

// table2 reproduces Table II: the GPU platforms used for evaluation.
func table2(g grid) (*report.Table, error) {
	t := &report.Table{
		Title:   "GPU architectures used for evaluation (Table II)",
		Columns: []string{"Role", "Architecture", "CUDA cores", "SMs", "Global memory", "L1D (default)", "L2", "Registers/SM", "Clock MHz", "Host CPU", "OS"},
	}
	for _, tgt := range g.targets {
		d, _ := target.GPUDevice(tgt)
		t.AddRow(d.Role, d.Architecture, d.CUDACores, d.SMs,
			formatBytes(d.GlobalMemBytes), formatBytes(int64(d.L1DBytes)), formatBytes(int64(d.L2Bytes)),
			d.RegistersPerSM, d.CoreClockMHz, d.HostCPU, d.OS)
	}
	t.AddNote("simulator runs sweep the L1D over bypassed/64KB/128KB/256KB and the gto/lrr/tlv warp schedulers")
	return t, nil
}

// table3 reproduces Table III: per-kernel launch geometry and SRAM usage for
// every network in the suite.
func table3(g grid) (*report.Table, error) {
	t := &report.Table{
		Title:   "Network configuration and SRAM usage (Table III)",
		Columns: []string{"Network", "Layer", "gridDim", "blockDim", "regs", "smem", "cmem"},
	}
	for _, name := range g.nets {
		tr, err := g.store.Trace(name)
		if err != nil {
			return nil, err
		}
		for _, k := range tr.Kernels {
			lc := k.Launch
			t.AddRow(name, k.LayerName,
				fmt.Sprintf("(%d,%d,%d)", lc.Grid[0], lc.Grid[1], lc.Grid[2]),
				fmt.Sprintf("(%d,%d,%d)", lc.Block[0], lc.Block[1], lc.Block[2]),
				lc.Regs, lc.SmemBytes, lc.CmemBytes)
		}
	}
	return t, nil
}

// table4 reproduces Table IV: the FPGA platform, the board of the registry's
// pynq target.
func table4(g grid) (*report.Table, error) {
	board, _ := target.FPGABoard(g.targets[0])
	t := &report.Table{
		Title:   "FPGA platform used for evaluation (Table IV)",
		Columns: []string{"Field", "Value"},
	}
	t.AddRow("Board", board.Name)
	t.AddRow("Processor", fmt.Sprintf("%s @ %d MHz", board.Processor, board.ProcessorClockMHz))
	t.AddRow("Memory", formatBytes(board.MemBytes))
	t.AddRow("Storage", formatBytes(board.StorageBytes))
	t.AddRow("Programmable logic", fmt.Sprintf("Xilinx Zynq Z7020, %d logic slices", board.LogicSlices))
	t.AddRow("BRAM", formatBytes(int64(board.BRAMBytes)))
	t.AddRow("DSP slices", board.DSPSlices)
	t.AddRow("Fabric clock", fmt.Sprintf("%d MHz", board.FabricClockMHz))
	return t, nil
}

// formatBytes renders a byte count with a binary suffix.
func formatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%d GB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%d MB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%d KB", b>>10)
	default:
		return fmt.Sprintf("%d B", b)
	}
}
