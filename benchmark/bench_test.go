package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The tail is p95 from 220 samples on and the 11th-largest below that: in
// both cases at least ten samples lie beyond it.
func TestTailSwitchesAt220(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 5},      // too short for either rule: the maximum
		{11, 1},     // 11th-largest of 1..11
		{219, 209},  // 11th-largest of 1..219
		{220, 209},  // p95 nearest rank: ceil(0.95*220) = 209, 11 beyond
		{1000, 950}, // p95
	} {
		if got := tail(seq(c.n)); got != c.want {
			t.Errorf("tail of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
	if beyond := 220 - int(tail(seq(220))); beyond < 10 {
		t.Errorf("p95 of 220 samples has %d samples beyond it, want at least 10", beyond)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which the
// acceptance rule for run-to-run spread is written in.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles of 3,1,4,1,5 = %v, %v, want 1, 4.5", q1, q3)
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// Every time-based metric is a low quantile of its per-slice values (the
// better quartile; the first decile for the tail; the fastest set-up), so
// slices slowed by the host (here five of eight, and three of them with a
// spoilt tail only) do not move it; allocations are the median.
func TestLowQuantilesIgnoreDisturbedSlices(t *testing.T) {
	w := workload{sliceOps: 10, itemsPerOp: 2}
	var win window
	for i := 0; i < 8; i++ {
		win.slices = append(win.slices, slice{seconds: 1, cpu: 0.5, mallocs: 40, p50MS: 100, tailMS: 120})
	}
	for _, i := range []int{1, 4, 6} {
		win.slices[i] = slice{seconds: 9, cpu: 4, mallocs: 4000, p50MS: 900, tailMS: 2000}
	}
	win.slices[0].tailMS, win.slices[3].tailMS, win.slices[7].tailMS = 700, 800, 900
	m := endToEndMetrics(w, win, []float64{9, 2, 30, 4, 9})
	for name, want := range map[string]float64{
		"items_per_s": 20, "allocs_per_item": 2, "setup_s": 2, "p50_ms": 100, "tail_ms": 120, "cpu_ms_per_item": 25,
	} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// quantile interpolates between order statistics and never leaves the range
// of its samples, however few.
func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{7}, 0.25, 7},
		{[]float64{4, 2}, 0.25, 2.5},
		{[]float64{3, 1, 2}, 0.25, 1.5},
		{seq(5), 0.25, 2},
		{seq(5), 0.75, 4},
		{seq(20), 0.25, 5.75},
		{seq(5), 1, 5},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

// runSlices must cut the window into equal-count slices and give each its
// own latency statistics.
func TestRunSlicesPerSliceStatistics(t *testing.T) {
	w := workload{sliceOps: 5, itemsPerOp: 1}
	var count opCounter
	win := runSlices(w, sleeper{}, 0.05, 0, &count)
	if len(win.slices) < 2 || len(win.latMS) != 5*len(win.slices) || count.attempted != len(win.latMS) {
		t.Fatalf("%d slices, %d latencies, %d ops attempted", len(win.slices), len(win.latMS), count.attempted)
	}
	for i, sl := range win.slices {
		lats := win.latMS[5*i : 5*i+5]
		if sl.p50MS != median(lats) || sl.tailMS != tail(lats) || !(sl.seconds > 0) {
			t.Errorf("slice %d: %+v does not match its ops %v", i, sl, lats)
		}
	}
}

// sleeper is an engine whose op takes about a millisecond.
type sleeper struct{}

func (sleeper) op(int) error { time.Sleep(time.Millisecond); return nil }
func (sleeper) close()       {}

// A layer's self time is its span minus the spans that name it as parent.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 0, Layer: "tango", Parent: -1, StartNS: 0, EndNS: 10 * ms},
		{ID: 1, Layer: "core", Parent: 0, StartNS: 10 * ms, EndNS: 19 * ms},
		{ID: 2, Layer: "nn", Parent: 1, StartNS: 19 * ms, EndNS: 22 * ms},
		{ID: 3, Layer: "nn", Parent: 1, StartNS: 22 * ms, EndNS: 26 * ms},
	}
	self := selfSeconds(spans)
	want := []float64{0.001, 0.002, 0.003, 0.004}
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-12 {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
	}
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if math.Abs(sum-spans[0].seconds()) > 1e-12 {
		t.Errorf("self times sum to %v, want the outermost span %v", sum, spans[0].seconds())
	}
}

// levels must run each level a turn at a time, outermost first, discard the
// warm-up spans and give every op its id.
func TestLevelsOrderAndOpIDs(t *testing.T) {
	rec := newRecorder()
	var order []string
	tops := make([]int, 4)
	rec.levels(walk{firstOp: 7, ops: 4, turn: 2, warm: 1},
		func(i int) { tops[i] = rec.call("a", "outer", -1, func() { order = append(order, "a") }) },
		func(i int) { rec.call("b", "inner", tops[i], func() { order = append(order, "b") }) },
	)
	if got, want := len(rec.spans), 8; got != want {
		t.Fatalf("%d spans recorded, want %d (warm-up discarded)", got, want)
	}
	wantNames := "aabbaabb"
	for i, s := range rec.spans {
		if s.Name != string(wantNames[i]) {
			t.Fatalf("span %d is %q, want %q", i, s.Name, wantNames[i])
		}
	}
	for _, s := range rec.spans {
		if s.Layer == "inner" {
			if p := rec.spans[s.Parent]; p.Layer != "outer" || p.OpID != s.OpID {
				t.Errorf("inner span of op %d hangs under %s span of op %d", s.OpID, p.Layer, p.OpID)
			}
		}
	}
	if rec.spans[0].OpID != 7 || rec.spans[7].OpID != 10 {
		t.Errorf("op ids run %d..%d, want 7..10", rec.spans[0].OpID, rec.spans[7].OpID)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json must be exactly what the program's tables say, and the
// tables must keep to the contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	want, err := json.MarshalIndent(benchmarkJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	if string(got) != string(want)+"\n" {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with -print-benchmark-json")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		unique(w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %q: why has %d characters, limit 200", w.name, len(w.why))
		}
		if w.sliceOps < 1 || w.setupRepeats < 1 || w.itemsPerOp < 1 {
			t.Errorf("workload %q: slice %d, set-up repeats %d, items per op %d", w.name, w.sliceOps, w.setupRepeats, w.itemsPerOp)
		}
	}
	for _, d := range endToEnd {
		unique(d.name)
		if !unitRE.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %q: bad unit %q or bound %v", d.name, d.unit, d.bound)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	for _, d := range perLayer {
		unique(d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q: bad unit %q", d.name, d.unit)
		}
	}
}

// Result files compare only when kernels and counts agree; a worse value is
// positive whichever direction is better.
func TestCompareRules(t *testing.T) {
	a := machineFingerprint()
	b := machineFingerprint()
	if err := comparable(a, b); err != nil {
		t.Errorf("identical fingerprints refused: %v", err)
	}
	b.SIMDTier = "other"
	if comparable(a, b) == nil {
		t.Error("different SIMD tiers accepted")
	}
	b = machineFingerprint()
	b.SliceOps["sweep-cold"]++
	if comparable(a, b) == nil {
		t.Error("different op counts accepted")
	}
	lower, higher := metricDef{name: "p50_ms"}, metricDef{name: "items_per_s", higher: true}
	if got := worsening(lower, 100, 110); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("latency 100 -> 110 worsens by %v, want 0.1", got)
	}
	if got := worsening(higher, 100, 90); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("throughput 100 -> 90 worsens by %v, want 0.1", got)
	}
}

// The pinned file must be self-consistent, and the checks must reject what
// they exist to reject.
func TestExpectedFileAndChecks(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	e := &exp.CifarNet[0]
	if err := e.checkExact(e.Class, e.probs); err != nil {
		t.Errorf("pinned output rejected against itself: %v", err)
	}
	off := append([]float32(nil), e.probs...)
	off[0] = math.Float32frombits(math.Float32bits(off[0]) + 1)
	if e.checkExact(e.Class, off) == nil {
		t.Error("a one-ulp difference passed the bit-identity check")
	}
	if err := e.checkTolerance(e.Class, off, tolFast); err != nil {
		t.Errorf("a one-ulp difference failed the fast tolerance: %v", err)
	}
	if e.checkTolerance(e.Class+1, off, tolFast) == nil {
		t.Error("a different top-1 class passed the tolerance check")
	}
	if hashSortedLines("b\na\n") != hashSortedLines("a\nb\n") {
		t.Error("sorted-line digest depends on line order")
	}
}

// Every workload, at a fiftieth of its counts, must report all seven
// end-to-end metrics with their units and no failed op.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("loads AlexNet three times")
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	env := &runEnv{tmpDir: t.TempDir()}
	for _, w := range workloads {
		res, err := runWorkload(w.scaled(50), 1, 0.001, exp, env)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d ops failed: %s", w.name, res.Failed, res.Attempted, res.FirstErr)
		}
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, d.name, m, d.unit)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics reported, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
	}
}
