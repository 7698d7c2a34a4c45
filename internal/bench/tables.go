package bench

import (
	"fmt"

	"tango/internal/core"
	"tango/internal/fpga"
	"tango/internal/report"
	"tango/internal/target"
)

// Table1 reproduces Table I: input data, pre-trained model provenance and
// output of every benchmark.
func (s *Session) Table1() (*report.Table, error) {
	t := &report.Table{
		ID:      "table1",
		Title:   "Input/Output and Pre-trained Models used by networks (Table I)",
		Columns: []string{"Network", "Input Data", "Pre-trained Model", "Output"},
	}
	keep := map[string]bool{}
	for _, n := range s.opts.filter(suiteNames()) {
		keep[n] = true
	}
	for _, r := range core.ReferenceInputs() {
		if !keep[r.Network] {
			continue
		}
		t.AddRow(r.Network, r.InputData, r.Pretrained, r.Output)
	}
	t.AddNote("pre-trained model files are replaced by deterministic synthetic weights with reference shapes")
	return t, nil
}

// Table2 reproduces Table II: the GPU platforms used for evaluation.
func (s *Session) Table2() (*report.Table, error) {
	t := &report.Table{
		ID:      "table2",
		Title:   "GPU architectures used for evaluation (Table II)",
		Columns: []string{"Role", "Architecture", "CUDA cores", "SMs", "Global memory", "L1D (default)", "L2", "Registers/SM", "Clock MHz", "Host CPU", "OS"},
	}
	for _, name := range []string{"gk210", "tx1", "gp102"} {
		g, _ := target.GPUDevice(builtin(name))
		t.AddRow(g.Role, g.Architecture, g.CUDACores, g.SMs,
			formatBytes(g.GlobalMemBytes), formatBytes(int64(g.L1DBytes)), formatBytes(int64(g.L2Bytes)),
			g.RegistersPerSM, g.CoreClockMHz, g.HostCPU, g.OS)
	}
	t.AddNote("simulator runs sweep the L1D over bypassed/64KB/128KB/256KB and the gto/lrr/tlv warp schedulers")
	return t, nil
}

// Table3 reproduces Table III: per-kernel launch geometry and SRAM usage for
// every network in the suite.
func (s *Session) Table3() (*report.Table, error) {
	t := &report.Table{
		ID:      "table3",
		Title:   "Network configuration and SRAM usage (Table III)",
		Columns: []string{"Network", "Layer", "gridDim", "blockDim", "regs", "smem", "cmem"},
	}
	for _, name := range s.opts.filter(suiteNames()) {
		tr, err := s.trace(name)
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

// Table4 reproduces Table IV: the FPGA platform.
func (s *Session) Table4() (*report.Table, error) {
	board := fpga.DefaultConfig().Board
	t := &report.Table{
		ID:      "table4",
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
