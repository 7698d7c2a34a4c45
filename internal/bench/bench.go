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

	"tango/internal/device"
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
	// Device is the simulated GPU; zero value selects the Pascal GP102
	// configuration the paper uses.
	Device device.GPU
	// Parallelism is the number of worker goroutines RunAll uses to warm the
	// session's network x configuration simulation matrix before rendering.
	// Zero or one keeps execution fully serial.  Rendered tables are
	// identical either way.
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
	if o.Device.Name == "" {
		o.Device = device.PascalGP102()
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

	// gpu is the session's default GPU target (Options.Device); tx1 and
	// fpga are the fixed embedded targets of Figure 6.
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
	reg := target.Builtin()
	tx1, err := reg.Lookup("tx1")
	if err != nil {
		panic(err) // builtin registry always has tx1
	}
	fp, err := reg.Lookup("pynq")
	if err != nil {
		panic(err) // builtin registry always has pynq
	}
	return &Session{
		opts:  opts,
		store: store,
		gpu:   target.ForGPU(opts.Device),
		tx1:   tx1,
		fpga:  fp,
	}
}

// Options returns the session's effective options.
func (s *Session) Options() Options { return s.opts }

// variant resolves one of the session's configuration tags to a variant of
// the default GPU target.  experimentTags and matrix use the same tags, so
// prewarming covers exactly the cells the renderers consume
// (TestPrewarmForCoversExperiments guards this).
func (s *Session) variant(tag string) (target.Variant, error) {
	v := target.DefaultVariant(s.opts.Sampling)
	switch tag {
	case "default":
		return v, nil
	case "nol1":
		return v.WithL1(tag, 0), nil
	case "l1":
		return v.WithL1(tag, 64<<10), nil
	case "l1x2":
		return v.WithL1(tag, 128<<10), nil
	case "l1x4":
		return v.WithL1(tag, 256<<10), nil
	case "sched-" + string(sched.LRR):
		return v.WithScheduler(tag, sched.LRR), nil
	case "sched-" + string(sched.TLV):
		return v.WithScheduler(tag, sched.TLV), nil
	default:
		return v, fmt.Errorf("bench: unknown configuration tag %q", tag)
	}
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
// GPU target under the configuration tag.
func (s *Session) simulate(network, tag string) (*gpusim.RunStats, error) {
	v, err := s.variant(tag)
	if err != nil {
		return nil, err
	}
	ts, err := s.runOn(s.gpu, network, v)
	if err != nil {
		return nil, err
	}
	return ts.GPU, nil
}

// simulateDefault runs a network under the session's default configuration.
func (s *Session) simulateDefault(network string) (*gpusim.RunStats, error) {
	return s.simulate(network, "default")
}

// Run executes one experiment by id.
func (s *Session) Run(id string) (*report.Table, error) {
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
		// Errors are deliberately ignored here: any cell that failed stays
		// uncached and the serial render below re-encounters it in the same
		// deterministic order a serial run would.
		_ = s.Prewarm(s.opts.Parallelism)
	}
	var out []*report.Table
	for _, e := range Experiments() {
		t, err := s.Run(e.ID)
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
