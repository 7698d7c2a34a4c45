package bench

import (
	"fmt"

	"tango/internal/gpusim"
	"tango/internal/isa"
	"tango/internal/power"
	"tango/internal/profiler"
	"tango/internal/report"
	"tango/internal/sched"
	"tango/internal/target"
)

// figureCNNs is the CNN subset the paper's per-layer-type figures use.
func (s *Session) figureCNNs() []string {
	return s.opts.filter([]string{"CifarNet", "AlexNet", "SqueezeNet", "ResNet"})
}

// allNetworks is the full suite, filtered by the options.
func (s *Session) allNetworks() []string {
	return s.opts.filter(suiteNames())
}

// Fig1 reproduces Figure 1: execution-time breakdown per layer type.
func (s *Session) Fig1() (*report.Table, error) {
	nets := s.figureCNNs()
	byNet := make(map[string]map[string]int64, len(nets))
	for _, name := range nets {
		rs, err := s.simulateDefault(name)
		if err != nil {
			return nil, err
		}
		byNet[name] = rs.CyclesByClass()
	}
	var maps []map[string]int64
	for _, name := range nets {
		maps = append(maps, byNet[name])
	}
	classes := presentClasses(maps...)
	t := &report.Table{
		ID:      "fig1",
		Title:   "Execution time breakdown w.r.t. layer type (Figure 1)",
		Columns: append([]string{"Network"}, classes...),
	}
	for _, name := range nets {
		var total int64
		for _, v := range byNet[name] {
			total += v
		}
		row := []interface{}{name}
		for _, c := range classes {
			row = append(row, report.FormatPercent(safeDiv(byNet[name][c], total)))
		}
		t.AddRow(row...)
	}
	t.AddNote("convolution (plus fire modules for SqueezeNet) dominates execution time; see Observation 1")
	return t, nil
}

// Fig2 reproduces Figure 2: normalized execution time under different L1D
// sizes (bypassed, 64KB, 128KB, 256KB), normalized to the bypassed run.
func (s *Session) Fig2() (*report.Table, error) {
	t := &report.Table{
		ID:      "fig2",
		Title:   "Normalized execution time with various L1D sizes (Figure 2)",
		Columns: []string{"Network", "No L1 (cycles)", "No L1", "L1", "2xL1", "4xL1"},
	}
	for _, name := range s.allNetworks() {
		var base int64
		row := []interface{}{name}
		var norms []interface{}
		for _, v := range s.l1Variants() {
			rs, err := s.simulate(name, v)
			if err != nil {
				return nil, err
			}
			cycles := rs.TotalCycles()
			if v.L1Bytes == 0 {
				base = cycles
				row = append(row, cycles)
			}
			norms = append(norms, fmt.Sprintf("%.3f", float64(cycles)/float64(base)))
		}
		row = append(row, norms...)
		t.AddRow(row...)
	}
	t.AddNote("CNNs speed up substantially with an L1D while RNNs are insensitive beyond the default size (Observation 2)")
	return t, nil
}

// powerModel returns the power model of the session's GPU target.
func (s *Session) powerModel() *power.Model {
	dev, _ := target.GPUDevice(s.gpu)
	return power.NewModel(dev)
}

// Fig3 reproduces Figure 3: peak power consumption across layers.
func (s *Session) Fig3() (*report.Table, error) {
	t := &report.Table{
		ID:      "fig3",
		Title:   "Peak power consumption across layers in Watt (Figure 3)",
		Columns: []string{"Network", "Peak power (W)", "Peak layer"},
	}
	m := s.powerModel()
	for _, name := range s.allNetworks() {
		rs, err := s.simulateDefault(name)
		if err != nil {
			return nil, err
		}
		np := m.NetworkPower(rs)
		t.AddRow(name, np.PeakWatts, np.PeakKernel)
	}
	t.AddNote("networks with larger layers draw higher peak power (Observation 3)")
	return t, nil
}

// Fig4 reproduces Figure 4: average power per layer type (share of the
// per-class average power).
func (s *Session) Fig4() (*report.Table, error) {
	nets := s.figureCNNs()
	m := s.powerModel()
	perNet := make(map[string]map[string]float64, len(nets))
	classSet := make(map[string]int64)
	for _, name := range nets {
		rs, err := s.simulateDefault(name)
		if err != nil {
			return nil, err
		}
		np := m.NetworkPower(rs)
		perNet[name] = np.ByClassWatts
		for c := range np.ByClassWatts {
			classSet[c] = 1
		}
	}
	classes := presentClasses(classSet)
	t := &report.Table{
		ID:      "fig4",
		Title:   "Average power consumption per layer type (Figure 4)",
		Columns: append([]string{"Network"}, classes...),
	}
	for _, name := range nets {
		total := 0.0
		for _, w := range perNet[name] {
			total += w
		}
		row := []interface{}{name}
		for _, c := range classes {
			if total > 0 {
				row = append(row, report.FormatPercent(perNet[name][c]/total))
			} else {
				row = append(row, "0%")
			}
		}
		t.AddRow(row...)
	}
	t.AddNote("power is distributed across layer types far more evenly than execution time (Observation 4)")
	return t, nil
}

// Fig5 reproduces Figure 5: the per-component power breakdown.
func (s *Session) Fig5() (*report.Table, error) {
	nets := s.allNetworks()
	t := &report.Table{
		ID:      "fig5",
		Title:   "Breakdown of average power consumption (Figure 5)",
		Columns: append([]string{"Component"}, nets...),
	}
	m := s.powerModel()
	byNet := make(map[string]power.NetworkPower, len(nets))
	for _, name := range nets {
		rs, err := s.simulateDefault(name)
		if err != nil {
			return nil, err
		}
		byNet[name] = m.NetworkPower(rs)
	}
	for _, comp := range power.Components() {
		row := []interface{}{comp.String()}
		visible := false
		for _, name := range nets {
			np := byNet[name]
			total := 0.0
			for _, w := range np.ByComponentWatts {
				total += w
			}
			share := 0.0
			if total > 0 {
				share = np.ByComponentWatts[comp] / total
			}
			if share >= 0.0005 {
				visible = true
			}
			row = append(row, report.FormatPercent(share))
		}
		if visible {
			t.AddRow(row...)
		}
	}
	t.AddNote("register file, L2 cache and idle-core power are the key consumers (Section IV-B)")
	return t, nil
}

// Fig6 reproduces Figure 6: energy on the embedded GPU (TX1) versus the
// embedded FPGA (PynQ) for CifarNet and SqueezeNet.  Both platforms run
// through the target registry, deriving from the same shared traces.
func (s *Session) Fig6() (*report.Table, error) {
	nets := s.opts.filter([]string{"CifarNet", "SqueezeNet"})
	t := &report.Table{
		ID:      "fig6",
		Title:   "Energy consumption on embedded GPU (TX1) vs embedded FPGA (PynQ) (Figure 6)",
		Columns: []string{"Network", "Platform", "Peak power (W)", "Exec time (s)", "Energy (J)", "Normalized energy"},
	}
	v := s.defaultVariant()
	for _, name := range nets {
		gpu, err := s.runOn(s.tx1, name, v)
		if err != nil {
			return nil, err
		}
		// The paper computes energy as peak power times execution time.
		gpuEnergy := gpu.PeakWatts * gpu.Seconds

		fp, err := s.runOn(s.fpga, name, v)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, "TX1", gpu.PeakWatts, gpu.Seconds, gpuEnergy, fmt.Sprintf("%.2f", gpuEnergy/fp.EnergyJoules))
		t.AddRow(name, "PynQ", fp.PeakWatts, fp.Seconds, fp.EnergyJoules, "1.00")
	}
	t.AddNote("TX1 draws higher peak power but finishes faster; its total energy still exceeds the PynQ's (Section IV-B3)")
	return t, nil
}

// Fig7 reproduces Figure 7: the stall-cycle breakdown per layer type and per
// network.
func (s *Session) Fig7() (*report.Table, error) {
	reasons := gpusim.StallReasons()
	cols := []string{"Network", "Layer type"}
	for _, r := range reasons {
		cols = append(cols, r.String())
	}
	t := &report.Table{
		ID:      "fig7",
		Title:   "Breakdown of stall cycles (Figure 7)",
		Columns: cols,
	}
	addRow := func(network, class string, shares profiler.StallShares) {
		row := []interface{}{network, class}
		for _, r := range reasons {
			row = append(row, report.FormatPercent(shares[r]))
		}
		t.AddRow(row...)
	}
	for _, name := range s.allNetworks() {
		rs, err := s.simulateDefault(name)
		if err != nil {
			return nil, err
		}
		byClass := profiler.StallBreakdownByClass(rs)
		classCounts := make(map[string]int64, len(byClass))
		for c := range byClass {
			classCounts[c] = 1
		}
		for _, class := range presentClasses(classCounts) {
			addRow(name, class, byClass[class])
		}
		addRow(name, "Summary", profiler.StallBreakdownTotal(rs))
	}
	return t, nil
}

// Fig8 reproduces Figure 8: the per-network operation-type breakdown.
func (s *Session) Fig8() (*report.Table, error) {
	nets := s.allNetworks()
	shares := make(map[string][]profiler.OpShare, len(nets))
	opSet := map[string]bool{}
	for _, name := range nets {
		rs, err := s.simulateDefault(name)
		if err != nil {
			return nil, err
		}
		shares[name] = profiler.OpBreakdown(rs)
		for _, sh := range shares[name] {
			if sh.Share >= 0.01 {
				opSet[sh.Op] = true
			}
		}
	}
	// Stable op column order: ISA order, only ops above 1% anywhere.
	var ops []string
	for op := isa.Opcode(0); op < isa.NumOpcodes; op++ {
		if opSet[op.String()] {
			ops = append(ops, op.String())
		}
	}
	t := &report.Table{
		ID:      "fig8",
		Title:   "Operation type breakdown (Figure 8)",
		Columns: append(append([]string{"Network"}, ops...), "others"),
	}
	for _, name := range nets {
		byOp := map[string]float64{}
		for _, sh := range shares[name] {
			byOp[sh.Op] = sh.Share
		}
		row := []interface{}{name}
		covered := 0.0
		for _, op := range ops {
			row = append(row, report.FormatPercent(byOp[op]))
			covered += byOp[op]
		}
		row = append(row, report.FormatPercent(1-covered))
		t.AddRow(row...)
	}
	t.AddNote("RNNs and CNNs each show a characteristic mix dominated by add/mad/mul/shl/ld (Observation 6)")
	return t, nil
}

// Fig9 reproduces Figure 9: the top-10 operations across all networks.
func (s *Session) Fig9() (*report.Table, error) {
	var runs []*gpusim.RunStats
	for _, name := range s.allNetworks() {
		rs, err := s.simulateDefault(name)
		if err != nil {
			return nil, err
		}
		runs = append(runs, rs)
	}
	merged := profiler.MergedOpBreakdown(runs)
	t := &report.Table{
		ID:      "fig9",
		Title:   "Total operations breakdown used by all networks (Figure 9)",
		Columns: []string{"Rank", "Operation", "Share"},
	}
	top := 10
	if top > len(merged) {
		top = len(merged)
	}
	covered := 0.0
	for i := 0; i < top; i++ {
		t.AddRow(i+1, merged[i].Op, report.FormatPercent(merged[i].Share))
		covered += merged[i].Share
	}
	t.AddRow("-", "Others", report.FormatPercent(1-covered))
	t.AddNote("top 10 operations cover %.1f%% of all executed instructions (Observation 7)", covered*100)
	return t, nil
}

// Fig10 reproduces Figure 10: the instruction data-type breakdown layer by
// layer for ResNet.
func (s *Session) Fig10() (*report.Table, error) {
	nets := s.opts.filter([]string{"ResNet"})
	t := &report.Table{
		ID:      "fig10",
		Title:   "Instruction data-type breakdown throughout execution (Figure 10, ResNet)",
		Columns: []string{"Layer", "f32", "u32", "u16", "s32", "s16"},
	}
	for _, name := range nets {
		rs, err := s.simulateDefault(name)
		if err != nil {
			return nil, err
		}
		for _, lt := range profiler.TypeTimeline(rs) {
			t.AddRow(lt.Layer,
				report.FormatPercent(lt.Shares["f32"]),
				report.FormatPercent(lt.Shares["u32"]),
				report.FormatPercent(lt.Shares["u16"]),
				report.FormatPercent(lt.Shares["s32"]),
				report.FormatPercent(lt.Shares["s16"]))
		}
		t.AddNote("%s integer-typed instruction share: %.1f%% (Observation 8)", name,
			profiler.IntegerShare(rs)*100)
	}
	return t, nil
}

// Fig11 reproduces Figure 11: the device-memory footprint per network.
func (s *Session) Fig11() (*report.Table, error) {
	t := &report.Table{
		ID:      "fig11",
		Title:   "Memory footprint (Figure 11)",
		Columns: []string{"Network", "Weights (KB)", "Activations (KB)", "Total (KB)"},
	}
	for _, name := range s.allNetworks() {
		tr, err := s.trace(name)
		if err != nil {
			return nil, err
		}
		fp, err := profiler.MemoryFootprint(tr.Net)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, float64(fp.WeightBytes)/1024, float64(fp.ActivationBytes)/1024, fp.KB())
	}
	t.AddNote("RNNs fit in well under 500KB while CNNs need megabytes (Observation 9)")
	return t, nil
}

// Fig12 reproduces Figure 12: per-SM register file usage.
func (s *Session) Fig12() (*report.Table, error) {
	t := &report.Table{
		ID:      "fig12",
		Title:   "Register file usage in KB (Figure 12)",
		Columns: []string{"Network", "Max allocated (KB)", "Max live (KB)"},
	}
	for _, name := range s.allNetworks() {
		rs, err := s.simulateDefault(name)
		if err != nil {
			return nil, err
		}
		reg := profiler.Registers(rs)
		t.AddRow(name, reg.KBAllocated(), reg.KBLive())
	}
	t.AddNote("the 256KB per-SM register file is significantly under-utilized (Observation 10)")
	return t, nil
}

// Fig13 reproduces Figure 13: total L2 misses per layer type with the L1D
// bypassed.
func (s *Session) Fig13() (*report.Table, error) {
	return s.l2ByClassTable("fig13", "Total L2 misses per layer type without L1D (Figure 13)", false)
}

// Fig14 reproduces Figure 14: the L2 miss ratio per layer type with the L1D
// bypassed.
func (s *Session) Fig14() (*report.Table, error) {
	return s.l2ByClassTable("fig14", "L2 miss ratio per layer type without L1D (Figure 14)", true)
}

func (s *Session) l2ByClassTable(id, title string, ratio bool) (*report.Table, error) {
	nets := s.figureCNNs()
	perNet := make(map[string]map[string]int64, len(nets))
	statsPerNet := make(map[string]map[string]float64, len(nets))
	for _, name := range nets {
		rs, err := s.simulate(name, s.defaultVariant().WithL1(0))
		if err != nil {
			return nil, err
		}
		byClass := rs.L2ByClass()
		counts := make(map[string]int64, len(byClass))
		vals := make(map[string]float64, len(byClass))
		for c, st := range byClass {
			counts[c] = st.Misses + st.MergedMiss
			if ratio {
				vals[c] = st.MissRatio()
			} else {
				vals[c] = float64(st.Misses + st.MergedMiss)
			}
		}
		perNet[name] = counts
		statsPerNet[name] = vals
	}
	var maps []map[string]int64
	for _, name := range nets {
		maps = append(maps, perNet[name])
	}
	classes := presentClasses(maps...)
	t := &report.Table{
		ID:      id,
		Title:   title,
		Columns: append([]string{"Network"}, classes...),
	}
	for _, name := range nets {
		row := []interface{}{name}
		for _, c := range classes {
			v := statsPerNet[name][c]
			if ratio {
				row = append(row, fmt.Sprintf("%.4f", v))
			} else {
				row = append(row, fmt.Sprintf("%.0f", v))
			}
		}
		t.AddRow(row...)
	}
	if ratio {
		t.AddNote("convolution layers have far lower L2 miss ratios than fully-connected layers (Observation 11)")
	} else {
		t.AddNote("convolution and fully-connected layers are the most data-intensive layer types")
	}
	return t, nil
}

// Fig15 reproduces Figure 15: execution time under the GTO, LRR and TLV warp
// schedulers, normalized to GTO.
func (s *Session) Fig15() (*report.Table, error) {
	t := &report.Table{
		ID:      "fig15",
		Title:   "Warp scheduler sensitivity (Figure 15)",
		Columns: []string{"Network", "GTO (cycles)", "GTO", "LRR", "TLV"},
	}
	for _, name := range s.allNetworks() {
		cycles := map[sched.Kind]int64{}
		for _, kind := range sched.Kinds() {
			rs, err := s.simulate(name, s.schedVariant(kind))
			if err != nil {
				return nil, err
			}
			cycles[kind] = rs.TotalCycles()
		}
		base := cycles[sched.GTO]
		t.AddRow(name, base,
			fmt.Sprintf("%.3f", 1.0),
			fmt.Sprintf("%.3f", float64(cycles[sched.LRR])/float64(base)),
			fmt.Sprintf("%.3f", float64(cycles[sched.TLV])/float64(base)))
	}
	t.AddNote("the plain round-robin scheduler is competitive with or better than GTO for conv-heavy CNNs (Observation 12)")
	return t, nil
}

// Fig16 reproduces Figure 16: per-layer scheduler sensitivity for AlexNet.
func (s *Session) Fig16() (*report.Table, error) {
	nets := s.opts.filter([]string{"AlexNet"})
	t := &report.Table{
		ID:      "fig16",
		Title:   "Per-layer warp scheduler sensitivity of AlexNet (Figure 16)",
		Columns: []string{"Layer", "GTO (cycles)", "GTO", "LRR", "TLV"},
	}
	for _, name := range nets {
		perSched := map[sched.Kind]*gpusim.RunStats{}
		for _, kind := range sched.Kinds() {
			rs, err := s.simulate(name, s.schedVariant(kind))
			if err != nil {
				return nil, err
			}
			perSched[kind] = rs
		}
		gto := perSched[sched.GTO]
		for i := range gto.Kernels {
			base := gto.Kernels[i].Cycles
			lrr := perSched[sched.LRR].Kernels[i].Cycles
			tlv := perSched[sched.TLV].Kernels[i].Cycles
			t.AddRow(gto.Kernels[i].Kernel.LayerName, base,
				fmt.Sprintf("%.3f", 1.0),
				fmt.Sprintf("%.3f", float64(lrr)/float64(base)),
				fmt.Sprintf("%.3f", float64(tlv)/float64(base)))
		}
	}
	return t, nil
}

// safeDiv returns a/b as a float fraction, or 0 when b is zero.
func safeDiv(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
