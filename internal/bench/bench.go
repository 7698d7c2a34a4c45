// Package bench contains one experiment driver per table and figure of the
// paper's evaluation section.  Each driver is a pure projection of the
// characterization pipeline: networks are lowered to layer traces once, every
// accelerator target derives its statistics from those shared traces through
// the target.Store, and the drivers render the same rows or series the paper
// reports as a report.Table from the cached runs.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"tango/internal/gpusim"
	"tango/internal/networks"
	"tango/internal/report"
	"tango/internal/sched"
	"tango/internal/target"
)

// Experiment identifies one reproducible table or figure.
type Experiment struct {
	// ID is the experiment key, e.g. "table3" or "fig2".
	ID string
	// Title summarizes what the paper's table/figure shows.
	Title string
}

// Experiments lists every reproducible experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Input/output and pre-trained models used by the networks"},
		{"table2", "GPU architectures used for evaluation"},
		{"table3", "Network configuration and SRAM usage (launch geometry per kernel)"},
		{"table4", "FPGA platform used for evaluation"},
		{"fig1", "Execution time breakdown w.r.t. layer type"},
		{"fig2", "Normalized execution time with various L1D sizes"},
		{"fig3", "Peak power consumption across layers (W)"},
		{"fig4", "Average power consumption per layer type"},
		{"fig5", "Breakdown of average power consumption (HW components)"},
		{"fig6", "Energy consumption on embedded GPU (TX1) vs embedded FPGA (PynQ)"},
		{"fig7", "Breakdown of stall cycles"},
		{"fig8", "Operation type breakdown"},
		{"fig9", "Total operations breakdown used by all networks (top 10)"},
		{"fig10", "Instruction data-type breakdown throughout execution (ResNet)"},
		{"fig11", "Memory footprint (KB)"},
		{"fig12", "Register file usage (KB per SM)"},
		{"fig13", "Total L2 misses per layer type without L1D"},
		{"fig14", "L2 miss ratio per layer type without L1D"},
		{"fig15", "Warp scheduler sensitivity"},
		{"fig16", "Per-layer warp scheduler sensitivity of AlexNet"},
	}
}

// IDs returns the experiment ids in order.
func IDs() []string {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// Options tunes how experiments are run.
type Options struct {
	// Sampling is the simulator sampling level; zero value selects the
	// characterization default.
	Sampling gpusim.Sampling
	// Networks restricts the benchmarks an experiment covers (nil = the
	// experiment's full set).  Useful for quick runs and tests.
	Networks []string
	// Parallelism is the number of worker goroutines that warm the cells an
	// experiment reads (all of them, for RunAll) before it renders.  Zero
	// or one keeps execution fully serial.  Rendered tables are identical
	// either way.
	Parallelism int
	// Store is the trace/run store backing the session; nil selects the
	// process-wide shared store, so repeated sessions reuse each other's
	// traces and runs.  Tests use a private store for isolation.
	Store *target.Store
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Sampling == (gpusim.Sampling{}) {
		o.Sampling = gpusim.DefaultSampling()
	}
	return o
}

// filter intersects the experiment's network list with the options filter.
func (o Options) filter(names []string) []string {
	if len(o.Networks) == 0 {
		return names
	}
	allowed := make(map[string]bool, len(o.Networks))
	for _, n := range o.Networks {
		allowed[n] = true
	}
	var out []string
	for _, n := range names {
		if allowed[n] {
			out = append(out, n)
		}
	}
	return out
}

// Session projects experiments from the shared characterization pipeline:
// layer traces are extracted once per network and every (target,
// configuration) run is computed once in the backing store, so a full report
// run — and any later session sharing the store — never repeats work.
type Session struct {
	opts  Options
	store *target.Store

	// gpu is the session's GPU target, the registry's gp102 (the paper's
	// simulator configuration); tx1 and fpga are the fixed embedded targets
	// of Figure 6.
	gpu  target.Target
	tx1  target.Target
	fpga target.Target
}

// NewSession creates a session with the given options.
func NewSession(opts Options) *Session {
	opts = opts.withDefaults()
	store := opts.Store
	if store == nil {
		store = target.Shared()
	}
	return &Session{
		opts:  opts,
		store: store,
		gpu:   builtin("gp102"),
		tx1:   builtin("tx1"),
		fpga:  builtin("pynq"),
	}
}

// builtin looks up a target the builtin registry always holds.
func builtin(name string) target.Target {
	t, err := target.Builtin().Lookup(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Options returns the session's effective options.
func (s *Session) Options() Options { return s.opts }

// defaultVariant is the session GPU's default configuration.
func (s *Session) defaultVariant() target.Variant {
	return target.DefaultVariant(s.opts.Sampling)
}

// l1Variants are Figure 2's L1D sizes in column order: bypassed (the
// normalization base), the 64KB default, twice and four times that.
func (s *Session) l1Variants() []target.Variant {
	var out []target.Variant
	for _, kb := range []int{0, 64, 128, 256} {
		out = append(out, s.defaultVariant().WithL1(kb<<10))
	}
	return out
}

// schedVariant is the session GPU under one warp scheduler; GTO, the
// default scheduler, is the default configuration.
func (s *Session) schedVariant(kind sched.Kind) target.Variant {
	if kind == sched.GTO {
		return s.defaultVariant()
	}
	return s.defaultVariant().WithScheduler(kind)
}

// trace returns the network's layer trace from the store.
func (s *Session) trace(network string) (*target.Trace, error) {
	return s.store.Trace(network)
}

// runOn derives the statistics of one network on an explicit target.
func (s *Session) runOn(t target.Target, network string, v target.Variant) (*target.RunStats, error) {
	return s.store.Run(t, network, v)
}

// simulate runs (or returns the cached run of) a network on the session's
// GPU target under the variant.
func (s *Session) simulate(network string, v target.Variant) (*gpusim.RunStats, error) {
	ts, err := s.runOn(s.gpu, network, v)
	if err != nil {
		return nil, err
	}
	return ts.GPU, nil
}

// simulateDefault runs a network under the session's default configuration.
func (s *Session) simulateDefault(network string) (*gpusim.RunStats, error) {
	return s.simulate(network, s.defaultVariant())
}

// Run executes one experiment by id.  With Options.Parallelism > 1 the
// cells the experiment reads are computed concurrently first (PrewarmFor);
// rendering is serial from the store, so the table is byte-identical to a
// serial run.
func (s *Session) Run(id string) (*report.Table, error) {
	if s.opts.Parallelism > 1 {
		// Errors are deliberately ignored here: a cell that failed stays
		// uncached and the serial render re-encounters it in the same
		// deterministic order a serial run would.
		_ = s.PrewarmFor(id, s.opts.Parallelism)
	}
	return s.render(id)
}

// render projects one experiment from the store.
func (s *Session) render(id string) (*report.Table, error) {
	switch strings.ToLower(id) {
	case "table1":
		return s.Table1()
	case "table2":
		return s.Table2()
	case "table3":
		return s.Table3()
	case "table4":
		return s.Table4()
	case "fig1":
		return s.Fig1()
	case "fig2":
		return s.Fig2()
	case "fig3":
		return s.Fig3()
	case "fig4":
		return s.Fig4()
	case "fig5":
		return s.Fig5()
	case "fig6":
		return s.Fig6()
	case "fig7":
		return s.Fig7()
	case "fig8":
		return s.Fig8()
	case "fig9":
		return s.Fig9()
	case "fig10":
		return s.Fig10()
	case "fig11":
		return s.Fig11()
	case "fig12":
		return s.Fig12()
	case "fig13":
		return s.Fig13()
	case "fig14":
		return s.Fig14()
	case "fig15":
		return s.Fig15()
	case "fig16":
		return s.Fig16()
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, IDs())
	}
}

// RunAll executes every experiment and returns the tables in paper order.
// With Options.Parallelism > 1 the simulation matrix is computed concurrently
// first; rendering always happens serially from the store, so the returned
// tables are byte-identical to a serial run.
func (s *Session) RunAll() ([]*report.Table, error) {
	if s.opts.Parallelism > 1 {
		_ = s.prewarmCells(s.matrix(), s.opts.Parallelism) // errors: see Run
	}
	var out []*report.Table
	for _, e := range Experiments() {
		t, err := s.render(e.ID)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.ID, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// suiteNames returns the full benchmark suite in suite order.
func suiteNames() []string { return networks.Names() }

// classOrder is the stacking order the paper's layer-type figures use.
var classOrder = []string{
	networks.ClassConv,
	networks.ClassPooling,
	networks.ClassFC,
	networks.ClassNorm,
	networks.ClassFireSqueeze,
	networks.ClassFireExpand,
	networks.ClassEltwise,
	networks.ClassScale,
	networks.ClassBatchNorm,
	networks.ClassReLU,
	networks.ClassRNN,
	networks.ClassOther,
}

// presentClasses returns the classes (in canonical order) that appear in any
// of the maps.
func presentClasses(maps ...map[string]int64) []string {
	present := map[string]bool{}
	for _, m := range maps {
		for c, v := range m {
			if v != 0 {
				present[c] = true
			}
		}
	}
	var out []string
	for _, c := range classOrder {
		if present[c] {
			out = append(out, c)
		}
	}
	// Any class not in the canonical order goes last, sorted.
	var extra []string
	for c := range present {
		known := false
		for _, k := range classOrder {
			if k == c {
				known = true
				break
			}
		}
		if !known {
			extra = append(extra, c)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}
