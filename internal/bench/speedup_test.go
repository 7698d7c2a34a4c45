package bench

import (
	"testing"

	"tango/internal/gpusim"
	"tango/internal/target"
)

// TestTraceStoreRepeatSpeedup guards the pipeline's reuse by the property
// that makes a repeat fast, not by a stopwatch: a second session over the
// same store renders the full report byte-identically without extracting a
// single trace, missing a single run or invoking a single target — every
// figure derives from the store (the PR 4 baseline kept the simulation cache
// per-session, so a new session re-ran the entire matrix).  How much faster
// the warm run is (bench.runall_warm_ms) is benchmark/'s to measure.
func TestTraceStoreRepeatSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full-report test skipped in -short mode")
	}
	store := target.NewStore()
	opts := Options{
		Networks: []string{"GRU", "LSTM", "CifarNet"},
		Sampling: gpusim.FastSampling(),
		Store:    store,
	}

	cold, err := NewSession(opts).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	before := store.Stats()
	if before.Computes == 0 || before.RunMisses == 0 || before.TraceMisses == 0 {
		t.Fatalf("cold RunAll left no work in the store's counters: %+v", before)
	}

	warm, err := NewSession(opts).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	after := store.Stats()

	if len(cold) != len(warm) {
		t.Fatalf("table counts differ: %d vs %d", len(cold), len(warm))
	}
	for i := range cold {
		if cold[i].String() != warm[i].String() {
			t.Errorf("%s: warm rendering differs from cold", cold[i].ID)
		}
	}
	if after.Computes != before.Computes || after.RunMisses != before.RunMisses || after.TraceMisses != before.TraceMisses {
		t.Errorf("warm RunAll did work the store already held: computes %d -> %d, run misses %d -> %d, trace misses %d -> %d",
			before.Computes, after.Computes, before.RunMisses, after.RunMisses, before.TraceMisses, after.TraceMisses)
	}
	if after.RunHits == before.RunHits {
		t.Errorf("warm RunAll never asked the store for a run (hits stayed %d)", before.RunHits)
	}
}
