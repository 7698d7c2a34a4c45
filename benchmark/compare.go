package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"tango/internal/tensor"
)

// fingerprint records where and how a result file was measured.  Two files
// are comparable only when the SIMD tier and the per-workload counts agree.
type fingerprint struct {
	SIMDTier   string         `json:"simd_tier"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	SliceOps   map[string]int `json:"slice_ops"`
	WarmOps    map[string]int `json:"warm_ops"`
	SetupReps  map[string]int `json:"setup_repeats"`
}

// resultFile is what -out writes and -compare reads: any number of runs,
// several per workload when the file holds a set.
type resultFile struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Runs        []*runResult `json:"runs"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		SIMDTier:   fmt.Sprint(tensor.DetectedTier()),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SliceOps:   map[string]int{},
		WarmOps:    map[string]int{},
		SetupReps:  map[string]int{},
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Stamped by the go tool when the build happens inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	for _, w := range workloads {
		fp.SliceOps[w.name] = w.sliceOps
		fp.WarmOps[w.name] = w.warmOps
		fp.SetupReps[w.name] = w.setupRepeats
	}
	return fp
}

// comparable refuses pairs measured with different kernels or counts.
func comparable(a, b fingerprint) error {
	if a.SIMDTier != b.SIMDTier {
		return fmt.Errorf("SIMD tiers differ: %s vs %s", a.SIMDTier, b.SIMDTier)
	}
	for _, pair := range []struct {
		what string
		x, y map[string]int
	}{{"slice ops", a.SliceOps, b.SliceOps}, {"warm-up ops", a.WarmOps, b.WarmOps}, {"set-up repeats", a.SetupReps, b.SetupReps}} {
		if len(pair.x) != len(pair.y) {
			return fmt.Errorf("%s cover different workloads", pair.what)
		}
		for name, n := range pair.x {
			if pair.y[name] != n {
				return fmt.Errorf("%s of %s differ: %d vs %d", pair.what, name, n, pair.y[name])
			}
		}
	}
	return nil
}

// values collects one metric's values over a file's runs of one workload.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// worsening is how much worse b is than a as a share of a, positive = worse.
func worsening(def metricDef, a, b float64) float64 {
	d := (b - a) / math.Abs(a)
	if def.higher {
		return -d
	}
	return d
}

// compareSets prints, per workload and end-to-end metric, both sides'
// median and quartiles, the relative difference and the bound, and reports
// whether every pair agrees within its bound in both directions (two sets of
// runs of the same code must; for parent-vs-change reports read the sign).
func compareSets(a, b *resultFile) bool {
	ok := true
	fmt.Printf("%-18s %-16s %14s %22s %14s %22s %8s %6s %7s %7s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B vs A", "bound", "spreadA", "spreadB")
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values(w.name, def.name), b.values(w.name, def.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			worse := worsening(def, ma, mb)
			verdict := ""
			if math.Abs(worse) > def.bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("%-18s %-16s %14.5f %10.4g..%-10.4g %14.5f %10.4g..%-10.4g %+7.1f%% %5.0f%% %6.1f%% %6.1f%%%s\n",
				w.name, def.name, ma, qa1, qa3, mb, qb1, qb3, 100*worse, 100*def.bound,
				100*spread(va), 100*spread(vb), verdict)
		}
	}
	return ok
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func compareFiles(pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return fail(err)
	}
	if err := comparable(a.Fingerprint, b.Fingerprint); err != nil {
		return fail(fmt.Errorf("refusing to compare: %w", err))
	}
	if !compareSets(a, b) {
		return 1
	}
	return 0
}

// runRepeat measures two sets of n suite runs, every run with its own seed,
// and compares them: the "two sets of runs of the same code agree" check.
func runRepeat(n int, seed uint64, seconds float64, out string, env *runEnv) int {
	sets := [2]*resultFile{{Fingerprint: machineFingerprint()}, {Fingerprint: machineFingerprint()}}
	code := 0
	for s := range sets {
		for i := 0; i < n; i++ {
			f, c := runSuite(seed+uint64(s*n+i), seconds, 0, env)
			sets[s].Runs = append(sets[s].Runs, f.Runs...)
			if c != 0 {
				code = c
			}
			fmt.Fprintf(os.Stderr, "set %c run %d/%d done\n", 'A'+s, i+1, n)
		}
		if out != "" {
			if err := writeJSON(fmt.Sprintf("%s.%c.json", strings.TrimSuffix(out, ".json"), 'A'+s), sets[s]); err != nil {
				return fail(err)
			}
		}
	}
	if !compareSets(sets[0], sets[1]) && code == 0 {
		code = 1
	}
	return code
}
