package bench

import (
	"fmt"

	"tango/internal/gpusim"
	"tango/internal/isa"
	"tango/internal/power"
	"tango/internal/profiler"
	"tango/internal/report"
)

// fig1 reproduces Figure 1: execution-time breakdown per layer type.
func fig1(g grid) (*report.Table, error) {
	nets := g.nets
	byNet := make(map[string]map[string]int64, len(nets))
	for _, name := range nets {
		rs, err := g.sim(name, 0)
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

// fig2 reproduces Figure 2: normalized execution time under different L1D
// sizes (bypassed, 64KB, 128KB, 256KB), normalized to the bypassed run.
func fig2(g grid) (*report.Table, error) {
	t := &report.Table{
		Title:   "Normalized execution time with various L1D sizes (Figure 2)",
		Columns: []string{"Network", "No L1 (cycles)", "No L1", "L1", "2xL1", "4xL1"},
	}
	for _, name := range g.nets {
		cycles, err := totalCycles(g, name)
		if err != nil {
			return nil, err
		}
		ratioRow(t, name, cycles)
	}
	t.AddNote("CNNs speed up substantially with an L1D while RNNs are insensitive beyond the default size (Observation 2)")
	return t, nil
}

// fig3 reproduces Figure 3: peak power consumption across layers.
func fig3(g grid) (*report.Table, error) {
	t := &report.Table{
		Title:   "Peak power consumption across layers in Watt (Figure 3)",
		Columns: []string{"Network", "Peak power (W)", "Peak layer"},
	}
	m := g.powerModel()
	for _, name := range g.nets {
		rs, err := g.sim(name, 0)
		if err != nil {
			return nil, err
		}
		np := m.NetworkPower(rs)
		t.AddRow(name, np.PeakWatts, np.PeakKernel)
	}
	t.AddNote("networks with larger layers draw higher peak power (Observation 3)")
	return t, nil
}

// fig4 reproduces Figure 4: average power per layer type (share of the
// per-class average power).
func fig4(g grid) (*report.Table, error) {
	nets := g.nets
	m := g.powerModel()
	perNet := make(map[string]map[string]float64, len(nets))
	classSet := make(map[string]int64)
	for _, name := range nets {
		rs, err := g.sim(name, 0)
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

// fig5 reproduces Figure 5: the per-component power breakdown.
func fig5(g grid) (*report.Table, error) {
	nets := g.nets
	t := &report.Table{
		Title:   "Breakdown of average power consumption (Figure 5)",
		Columns: append([]string{"Component"}, nets...),
	}
	m := g.powerModel()
	byNet := make(map[string]power.NetworkPower, len(nets))
	for _, name := range nets {
		rs, err := g.sim(name, 0)
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

// fig6 reproduces Figure 6: energy on the embedded GPU (TX1) versus the
// embedded FPGA (PynQ) for CifarNet and SqueezeNet.  The row's targets are
// the TX1, then the PynQ, both deriving from the same shared traces.
func fig6(g grid) (*report.Table, error) {
	t := &report.Table{
		Title:   "Energy consumption on embedded GPU (TX1) vs embedded FPGA (PynQ) (Figure 6)",
		Columns: []string{"Network", "Platform", "Peak power (W)", "Exec time (s)", "Energy (J)", "Normalized energy"},
	}
	for _, name := range g.nets {
		gpu, err := g.run(name, 0, 0)
		if err != nil {
			return nil, err
		}
		// The paper computes energy as peak power times execution time.
		gpuEnergy := gpu.PeakWatts * gpu.Seconds

		fp, err := g.run(name, 1, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, "TX1", gpu.PeakWatts, gpu.Seconds, gpuEnergy, fmt.Sprintf("%.2f", gpuEnergy/fp.EnergyJoules))
		t.AddRow(name, "PynQ", fp.PeakWatts, fp.Seconds, fp.EnergyJoules, "1.00")
	}
	t.AddNote("TX1 draws higher peak power but finishes faster; its total energy still exceeds the PynQ's (Section IV-B3)")
	return t, nil
}

// fig7 reproduces Figure 7: the stall-cycle breakdown per layer type and per
// network.
func fig7(g grid) (*report.Table, error) {
	reasons := gpusim.StallReasons()
	cols := []string{"Network", "Layer type"}
	for _, r := range reasons {
		cols = append(cols, r.String())
	}
	t := &report.Table{
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
	for _, name := range g.nets {
		rs, err := g.sim(name, 0)
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

// fig8 reproduces Figure 8: the per-network operation-type breakdown.
func fig8(g grid) (*report.Table, error) {
	nets := g.nets
	shares := make(map[string][]profiler.OpShare, len(nets))
	opSet := map[string]bool{}
	for _, name := range nets {
		rs, err := g.sim(name, 0)
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

// fig9 reproduces Figure 9: the top-10 operations across all networks.
func fig9(g grid) (*report.Table, error) {
	var runs []*gpusim.RunStats
	for _, name := range g.nets {
		rs, err := g.sim(name, 0)
		if err != nil {
			return nil, err
		}
		runs = append(runs, rs)
	}
	merged := profiler.MergedOpBreakdown(runs)
	t := &report.Table{
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

// fig10 reproduces Figure 10: the instruction data-type breakdown layer by
// layer for ResNet.
func fig10(g grid) (*report.Table, error) {
	t := &report.Table{
		Title:   "Instruction data-type breakdown throughout execution (Figure 10, ResNet)",
		Columns: []string{"Layer", "f32", "u32", "u16", "s32", "s16"},
	}
	for _, name := range g.nets {
		rs, err := g.sim(name, 0)
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

// fig11 reproduces Figure 11: the device-memory footprint per network.
func fig11(g grid) (*report.Table, error) {
	t := &report.Table{
		Title:   "Memory footprint (Figure 11)",
		Columns: []string{"Network", "Weights (KB)", "Activations (KB)", "Total (KB)"},
	}
	for _, name := range g.nets {
		tr, err := g.store.Trace(name)
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

// fig12 reproduces Figure 12: per-SM register file usage.
func fig12(g grid) (*report.Table, error) {
	t := &report.Table{
		Title:   "Register file usage in KB (Figure 12)",
		Columns: []string{"Network", "Max allocated (KB)", "Max live (KB)"},
	}
	for _, name := range g.nets {
		rs, err := g.sim(name, 0)
		if err != nil {
			return nil, err
		}
		reg := profiler.Registers(rs)
		t.AddRow(name, reg.KBAllocated(), reg.KBLive())
	}
	t.AddNote("the 256KB per-SM register file is significantly under-utilized (Observation 10)")
	return t, nil
}

// fig13 reproduces Figure 13: total L2 misses per layer type with the L1D
// bypassed.
func fig13(g grid) (*report.Table, error) {
	return l2ByClassTable(g, "Total L2 misses per layer type without L1D (Figure 13)", false)
}

// fig14 reproduces Figure 14: the L2 miss ratio per layer type with the L1D
// bypassed.
func fig14(g grid) (*report.Table, error) {
	return l2ByClassTable(g, "L2 miss ratio per layer type without L1D (Figure 14)", true)
}

func l2ByClassTable(g grid, title string, ratio bool) (*report.Table, error) {
	nets := g.nets
	perNet := make(map[string]map[string]int64, len(nets))
	statsPerNet := make(map[string]map[string]float64, len(nets))
	for _, name := range nets {
		rs, err := g.sim(name, 0)
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

// fig15 reproduces Figure 15: execution time under the GTO, LRR and TLV warp
// schedulers, normalized to GTO.
func fig15(g grid) (*report.Table, error) {
	t := &report.Table{
		Title:   "Warp scheduler sensitivity (Figure 15)",
		Columns: []string{"Network", "GTO (cycles)", "GTO", "LRR", "TLV"},
	}
	for _, name := range g.nets {
		cycles, err := totalCycles(g, name)
		if err != nil {
			return nil, err
		}
		ratioRow(t, name, cycles)
	}
	t.AddNote("the plain round-robin scheduler is competitive with or better than GTO for conv-heavy CNNs (Observation 12)")
	return t, nil
}

// fig16 reproduces Figure 16: per-layer scheduler sensitivity for AlexNet.
func fig16(g grid) (*report.Table, error) {
	t := &report.Table{
		Title:   "Per-layer warp scheduler sensitivity of AlexNet (Figure 16)",
		Columns: []string{"Layer", "GTO (cycles)", "GTO", "LRR", "TLV"},
	}
	for _, name := range g.nets {
		var runs []*gpusim.RunStats
		for vi := range g.variants {
			rs, err := g.sim(name, vi)
			if err != nil {
				return nil, err
			}
			runs = append(runs, rs)
		}
		for i, k := range runs[0].Kernels {
			cycles := make([]int64, len(runs))
			for vi, rs := range runs {
				cycles[vi] = rs.Kernels[i].Cycles
			}
			ratioRow(t, k.Kernel.LayerName, cycles)
		}
	}
	return t, nil
}

// totalCycles returns the network's total cycles under each of the grid's
// variants.
func totalCycles(g grid, network string) ([]int64, error) {
	cycles := make([]int64, len(g.variants))
	for vi := range g.variants {
		rs, err := g.sim(network, vi)
		if err != nil {
			return nil, err
		}
		cycles[vi] = rs.TotalCycles()
	}
	return cycles, nil
}

// ratioRow adds a row of cycle counts normalized to the first: the label,
// the first count, then every count over the first.
func ratioRow(t *report.Table, label string, cycles []int64) {
	row := []interface{}{label, cycles[0]}
	for _, c := range cycles {
		row = append(row, fmt.Sprintf("%.3f", float64(c)/float64(cycles[0])))
	}
	t.AddRow(row...)
}

// safeDiv returns a/b as a float fraction, or 0 when b is zero.
func safeDiv(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
