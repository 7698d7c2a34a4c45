// Package bench contains one experiment driver per table and figure of the
// paper's evaluation section.  Each driver is a pure projection of the
// characterization pipeline: networks are lowered to layer traces once, every
// accelerator target derives its statistics from those shared traces through
// the target.Store, and the drivers render the same rows or series the paper
// reports as a report.Table from the cached runs.
//
// The experiments are one table (experiments): a row names the experiment,
// the runs it reads and its renderer, which reads exactly those runs.  A
// single Run warms its own row's runs, RunAll the union of every row's.
package bench

import (
	"fmt"
	"slices"
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
	// ID is the experiment key: table1..table4 or fig1..fig16.
	ID string
	// Title summarizes what the paper's table/figure shows.
	Title string
}

// experiment is one row of the experiment table: a table or figure of the
// paper, the runs it reads and the renderer that projects them.  The runs
// are each network of nets (nil: the whole suite) that the options keep, on
// each registry target named in on, under each variant that variants
// derives from the session's default configuration; a row without variants
// reads no runs.
type experiment struct {
	id, title string
	nets      []string
	on        []string
	variants  func(def target.Variant) []target.Variant
	render    func(g grid) (*report.Table, error)
}

var (
	// figureCNNs is the CNN subset the paper's per-layer-type figures use.
	figureCNNs = []string{"CifarNet", "AlexNet", "SqueezeNet", "ResNet"}
	// gp102 is the session GPU, the paper's simulator configuration.
	gp102 = []string{"gp102"}
)

// experiments is the experiment table, in paper order.
var experiments = []experiment{
	{id: "table1", title: "Input/output and pre-trained models used by the networks", render: table1},
	{id: "table2", title: "GPU architectures used for evaluation", on: []string{"gk210", "tx1", "gp102"}, render: table2},
	{id: "table3", title: "Network configuration and SRAM usage (launch geometry per kernel)", render: table3},
	{id: "table4", title: "FPGA platform used for evaluation", on: []string{"pynq"}, render: table4},
	{id: "fig1", title: "Execution time breakdown w.r.t. layer type", nets: figureCNNs, on: gp102, variants: defaultOnly, render: fig1},
	{id: "fig2", title: "Normalized execution time with various L1D sizes", on: gp102, variants: l1Sizes, render: fig2},
	{id: "fig3", title: "Peak power consumption across layers (W)", on: gp102, variants: defaultOnly, render: fig3},
	{id: "fig4", title: "Average power consumption per layer type", nets: figureCNNs, on: gp102, variants: defaultOnly, render: fig4},
	{id: "fig5", title: "Breakdown of average power consumption (HW components)", on: gp102, variants: defaultOnly, render: fig5},
	{id: "fig6", title: "Energy consumption on embedded GPU (TX1) vs embedded FPGA (PynQ)", nets: []string{"CifarNet", "SqueezeNet"}, on: []string{"tx1", "pynq"}, variants: defaultOnly, render: fig6},
	{id: "fig7", title: "Breakdown of stall cycles", on: gp102, variants: defaultOnly, render: fig7},
	{id: "fig8", title: "Operation type breakdown", on: gp102, variants: defaultOnly, render: fig8},
	{id: "fig9", title: "Total operations breakdown used by all networks (top 10)", on: gp102, variants: defaultOnly, render: fig9},
	{id: "fig10", title: "Instruction data-type breakdown throughout execution (ResNet)", nets: []string{"ResNet"}, on: gp102, variants: defaultOnly, render: fig10},
	{id: "fig11", title: "Memory footprint (KB)", render: fig11},
	{id: "fig12", title: "Register file usage (KB per SM)", on: gp102, variants: defaultOnly, render: fig12},
	{id: "fig13", title: "Total L2 misses per layer type without L1D", nets: figureCNNs, on: gp102, variants: noL1, render: fig13},
	{id: "fig14", title: "L2 miss ratio per layer type without L1D", nets: figureCNNs, on: gp102, variants: noL1, render: fig14},
	{id: "fig15", title: "Warp scheduler sensitivity", on: gp102, variants: schedulers, render: fig15},
	{id: "fig16", title: "Per-layer warp scheduler sensitivity of AlexNet", nets: []string{"AlexNet"}, on: gp102, variants: schedulers, render: fig16},
}

// defaultOnly is the default configuration alone.
func defaultOnly(def target.Variant) []target.Variant { return []target.Variant{def} }

// noL1 is the default configuration with the L1D bypassed.
func noL1(def target.Variant) []target.Variant { return []target.Variant{def.WithL1(0)} }

// l1Sizes are Figure 2's L1D sizes in column order: bypassed (the
// normalization base), the 64KB default, twice and four times that.
func l1Sizes(def target.Variant) []target.Variant {
	var out []target.Variant
	for _, kb := range []int{0, 64, 128, 256} {
		out = append(out, def.WithL1(kb<<10))
	}
	return out
}

// schedulers is the default configuration under each warp scheduler in
// sched.Kinds order; GTO, the default scheduler, is the default
// configuration itself.
func schedulers(def target.Variant) []target.Variant {
	var out []target.Variant
	for _, kind := range sched.Kinds() {
		if kind == sched.GTO {
			out = append(out, def)
		} else {
			out = append(out, def.WithScheduler(kind))
		}
	}
	return out
}

// Experiments lists every reproducible experiment in paper order.
func Experiments() []Experiment {
	out := make([]Experiment, len(experiments))
	for i, e := range experiments {
		out[i] = Experiment{ID: e.id, Title: e.title}
	}
	return out
}

// IDs returns the experiment ids in order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// lookup returns the row of experiment id, matched case-insensitively.
func lookup(id string) (experiment, bool) {
	for _, e := range experiments {
		if strings.EqualFold(e.id, id) {
			return e, true
		}
	}
	return experiment{}, false
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
}

// NewSession creates a session with the given options.
func NewSession(opts Options) *Session {
	if opts.Sampling == (gpusim.Sampling{}) {
		opts.Sampling = gpusim.DefaultSampling()
	}
	store := opts.Store
	if store == nil {
		store = target.Shared()
	}
	return &Session{opts: opts, store: store}
}

// grid resolves an experiment's row against the session's options.
func (s *Session) grid(e experiment) grid {
	nets := e.nets
	if nets == nil {
		nets = networks.Names()
	}
	g := grid{store: s.store, nets: s.opts.filter(nets)}
	for _, name := range e.on {
		t, err := target.Builtin().Lookup(name)
		if err != nil {
			panic(err) // the builtin registry holds every name the table uses
		}
		g.targets = append(g.targets, t)
	}
	if e.variants != nil {
		g.variants = e.variants(target.DefaultVariant(s.opts.Sampling))
	}
	return g
}

// Run executes one experiment by id.  With Options.Parallelism > 1 the
// cells the experiment reads are computed concurrently first (PrewarmFor);
// rendering is serial from the store, so the table is byte-identical to a
// serial run.
func (s *Session) Run(id string) (*report.Table, error) {
	e, ok := lookup(id)
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, IDs())
	}
	g := s.grid(e)
	if s.opts.Parallelism > 1 {
		// Errors are deliberately ignored here: a cell that failed stays
		// uncached and the serial render re-encounters it in the same
		// deterministic order a serial run would.
		_ = s.prewarmCells(g.cells(), s.opts.Parallelism)
	}
	return render(e, g)
}

// render projects one experiment from the store.
func render(e experiment, g grid) (*report.Table, error) {
	t, err := e.render(g)
	if err != nil {
		return nil, err
	}
	t.ID = e.id
	return t, nil
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
	for _, e := range experiments {
		t, err := render(e, s.grid(e))
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

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
		if !slices.Contains(classOrder, c) {
			extra = append(extra, c)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}
