// Command benchmark is the repository's performance benchmark: four workloads
// over the native engine, the HTTP server and the characterization sweep,
// seven end-to-end metrics each, and a traced run that attributes time to
// the repository's packages from outside.  See README.md.
//
//	bash benchmark/run.sh --workload alexnet-ref-b1 --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh                      # all four workloads, one child process each
//	bash benchmark/run.sh -repeat 10           # two sets of ten suite runs, compared
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// metricDef is one end-to-end metric: its unit, direction and the share of
// the parent's median by which it may worsen (BENCHMARK.json carries the
// same table; a test keeps the two in step).
type metricDef struct {
	name, unit string
	higher     bool // true when larger is better
	bound      float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"p50_ms", "ms", false, 0.25},
	{"tail_ms", "ms", false, 0.25},
	{"items_per_s", "1/s", true, 0.25},
	{"cpu_ms_per_item", "ms", false, 0.25},
	{"allocs_per_item", "count", false, 0.05},
	{"peak_rss_mb", "MB", false, 0.10},
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name      = flag.String("workload", "", "workload to run in this process (default: all four, one child process each)")
		seed      = flag.Uint64("seed", 1, "workload seed: selects and orders the pooled inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		traced    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and spans instead of end-to-end metrics")
		traceOut  = flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON")
		out       = flag.String("out", "", "write the result file (fingerprint + runs) here")
		repeat    = flag.Int("repeat", 0, "run the suite 2xN times with different seeds and compare the two sets of N")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 if any median differs by more than its bound")
		updateExp = flag.Bool("update-expected", false, "recompute expected.json through the direct reference kernels and print what changed")
		printJSON = flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as the program's tables define it")
	)
	flag.Parse()
	// The engine reads these; a stray value would change what is measured.
	for _, v := range []string{"TANGO_NUMERICS", "TANGO_FAULTS", "TANGO_CACHE_DIR", "TANGO_CACHE_MAX_MB"} {
		os.Unsetenv(v)
	}
	// Two logical CPUs is the baseline machine; pinning it keeps results
	// comparable on a larger box.  Engine parallelism stays at its
	// single-worker default.
	runtime.GOMAXPROCS(2)

	env, err := newRunEnv()
	if err != nil {
		return fail(err)
	}

	switch {
	case *printJSON:
		data, _ := json.MarshalIndent(benchmarkJSON(), "", "  ")
		fmt.Println(string(data))
		return 0
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case *updateExp:
		path := "expected.json"
		if _, err := os.Stat("benchmark"); err == nil {
			path = filepath.Join("benchmark", path)
		}
		if err := updateExpected(path, env.tmpDir); err != nil {
			return fail(err)
		}
		return 0
	case *repeat > 0:
		return runRepeat(*repeat, *seed, *seconds, *out, env)
	case *name == "":
		file, code := runSuite(*seed, *seconds, *traced, env)
		printSuite(file)
		if *out != "" {
			if err := writeJSON(*out, file); err != nil {
				return fail(err)
			}
		}
		return code
	}

	w, ok := findWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	exp, err := loadExpected()
	if err != nil {
		return fail(err)
	}
	var res *runResult
	if *traced != 0 {
		res, err = runTraced(w, *seed, *seconds, exp, env, *traceOut)
	} else {
		res, err = runWorkload(w, *seed, *seconds, exp, env)
	}
	if err != nil {
		return fail(err)
	}
	printRun(res)
	if *out != "" {
		if err := writeJSON(*out, &resultFile{Fingerprint: machineFingerprint(), Runs: []*runResult{res}}); err != nil {
			return fail(err)
		}
	}
	// The contract's last line: one JSON object.
	line, _ := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	})
	fmt.Println(string(line))
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d ops failed; first: %s\n", res.Failed, res.Attempted, res.FirstErr)
		return 1
	}
	return 0
}

// benchmarkJSON is the content of BENCHMARK.json at the root of the repo:
// the command, the workloads and the metric tables of this program.
func benchmarkJSON() map[string]any {
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	type obj = map[string]any
	var ws, e2e, layers []obj
	for _, w := range workloads {
		ws = append(ws, obj{"name": w.name, "why": w.why})
	}
	for _, d := range endToEnd {
		e2e = append(e2e, obj{"name": d.name, "unit": d.unit, "better": better(d.higher), "bound": d.bound})
	}
	for _, d := range perLayer {
		layers = append(layers, obj{"name": d.name, "unit": d.unit, "better": better(d.higher)})
	}
	return obj{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": defaultSeconds,
		"workloads":   ws,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// newRunEnv creates the scratch directory, inside the working directory so
// that a run touches nothing outside its checkout.
func newRunEnv() (*runEnv, error) {
	dir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &runEnv{tmpDir: dir}, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRun prints one run's metrics by name with their units.
func printRun(r *runResult) {
	fmt.Printf("workload %s  seed %d  window %gs  samples %d  slices %d  attempted %d  failed %d\n",
		r.Workload, r.Seed, r.Seconds, r.Samples, r.Slices, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-34s %16.6f %s\n", n, m.Value, m.Unit)
	}
}

// runSuite runs every workload in a child process of its own (so that heap
// state, peak RSS and caches of one never reach the next) and gathers the
// results.  The exit code is non-zero if any child failed.
func runSuite(seed uint64, seconds float64, traced int, env *runEnv) (*resultFile, int) {
	file := &resultFile{Fingerprint: machineFingerprint()}
	self, err := os.Executable()
	if err != nil {
		return file, fail(err)
	}
	code := 0
	for _, w := range workloads {
		tmp := filepath.Join(env.tmpDir, fmt.Sprintf("run-%s-%d.json", w.name, os.Getpid()))
		cmd := exec.Command(self,
			"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(traced), "-out", tmp)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil { // Run waits for the child to end
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
		var child resultFile
		if data, err := os.ReadFile(tmp); err == nil && json.Unmarshal(data, &child) == nil {
			file.Runs = append(file.Runs, child.Runs...)
		} else {
			code = 1
		}
		os.Remove(tmp)
	}
	return file, code
}

func printSuite(f *resultFile) {
	for _, r := range f.Runs {
		printRun(r)
	}
	failed, attempted := 0, 0
	for _, r := range f.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	fmt.Printf("suite: %d workloads, %d ops attempted, %d failed\n", len(f.Runs), attempted, failed)
}
