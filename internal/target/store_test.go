package target

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tango/internal/device"
	"tango/internal/gpusim"
	"tango/internal/sched"
)

// countingTarget wraps a cheap fake backend and counts Run invocations, so
// the tests can prove the store coalesces concurrent work.
type countingTarget struct {
	name string
	runs atomic.Int64
	fail atomic.Bool
}

func (c *countingTarget) Name() string        { return c.name }
func (c *countingTarget) Class() device.Class { return device.ClassGPU }
func (c *countingTarget) Role() string        { return "Test" }
func (c *countingTarget) Description() string { return "counting stub" }
func (c *countingTarget) CacheKey(v Variant) string {
	return fmt.Sprintf("l1set=%v|l1=%d", v.L1Set, v.L1Bytes)
}

func (c *countingTarget) Run(tr *Trace, _ Variant) (*RunStats, error) {
	c.runs.Add(1)
	if c.fail.Load() {
		return nil, errors.New("injected failure")
	}
	return &RunStats{Network: tr.Network, Target: c.name, Seconds: 1}, nil
}

// TestStoreCoalescesConcurrentWork hammers one (target, network, variant)
// cell plus the underlying trace from many goroutines and asserts exactly one
// extraction and one run happen, with every caller seeing the same result.
// Run under -race this also validates the store's synchronization.
func TestStoreCoalescesConcurrentWork(t *testing.T) {
	store := NewStore()
	tgt := &countingTarget{name: "stub"}
	v := DefaultVariant(gpusim.FastSampling())

	const goroutines = 32
	results := make([]*RunStats, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = store.Run(tgt, "GRU", v)
		}(i)
	}
	wg.Wait()

	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different result pointer", i)
		}
	}
	if got := tgt.runs.Load(); got != 1 {
		t.Errorf("store ran the target %d times, want 1", got)
	}
	st := store.Stats()
	if st.Runs != 1 || st.Traces != 1 {
		t.Errorf("store should hold 1 run and 1 trace, got %+v", st)
	}
	if st.RunMisses != 1 || st.RunHits != goroutines-1 {
		t.Errorf("want 1 miss and %d hits, got %+v", goroutines-1, st)
	}
}

// TestStoreSharesTracesAcrossTargets asserts two targets derive from one
// extraction of the same network.
func TestStoreSharesTracesAcrossTargets(t *testing.T) {
	store := NewStore()
	a := &countingTarget{name: "a"}
	b := &countingTarget{name: "b"}
	v := DefaultVariant(gpusim.FastSampling())
	if _, err := store.Run(a, "GRU", v); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Run(b, "GRU", v); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Traces != 1 {
		t.Errorf("two targets over one network should share 1 trace, got %d", st.Traces)
	}
	if st.Runs != 2 {
		t.Errorf("distinct targets must not share runs, got %d", st.Runs)
	}
}

// TestStoreCanonicalVariantsShareRuns asserts variants with equal cache keys
// hit one run while differing keys compute separately.
func TestStoreCanonicalVariantsShareRuns(t *testing.T) {
	store := NewStore()
	tgt := &countingTarget{name: "stub"}
	s := gpusim.FastSampling()
	if _, err := store.Run(tgt, "GRU", DefaultVariant(s)); err != nil {
		t.Fatal(err)
	}
	// The stub's key ignores the scheduler, so a variant named differently
	// ("sched-lrr", not "default") must still share the run.
	if _, err := store.Run(tgt, "GRU", DefaultVariant(s).WithScheduler(sched.LRR)); err != nil {
		t.Fatal(err)
	}
	if got := tgt.runs.Load(); got != 1 {
		t.Errorf("equal cache keys should share one run, got %d", got)
	}
	if _, err := store.Run(tgt, "GRU", DefaultVariant(s).WithL1(0)); err != nil {
		t.Fatal(err)
	}
	if got := tgt.runs.Load(); got != 2 {
		t.Errorf("distinct cache keys should compute separately, got %d runs", got)
	}
}

// TestStoreDoesNotCacheErrors asserts a failed run (and a failed extraction)
// is retried by the next request, matching the serial render path's
// deterministic error reporting.
func TestStoreDoesNotCacheErrors(t *testing.T) {
	store := NewStore()
	tgt := &countingTarget{name: "stub"}
	v := DefaultVariant(gpusim.FastSampling())

	tgt.fail.Store(true)
	if _, err := store.Run(tgt, "GRU", v); err == nil {
		t.Fatal("injected failure should surface")
	}
	if st := store.Stats(); st.Runs != 0 {
		t.Errorf("failed run must not stay cached, store holds %d runs", st.Runs)
	}
	tgt.fail.Store(false)
	if _, err := store.Run(tgt, "GRU", v); err != nil {
		t.Fatalf("retry after failure should succeed, got %v", err)
	}
	if got := tgt.runs.Load(); got != 2 {
		t.Errorf("expected 2 target runs (failure + retry), got %d", got)
	}

	if _, err := store.Trace("NoSuchNet"); err == nil {
		t.Fatal("unknown network should fail")
	}
	if st := store.Stats(); st.Traces != 1 {
		t.Errorf("failed extraction must not stay cached, store holds %d traces", st.Traces)
	}
	if _, err := store.Run(tgt, "NoSuchNet", v); err == nil {
		t.Error("run of an unknown network should fail")
	}
}

// TestSharedStoreIsProcessWide asserts Shared returns one store.
func TestSharedStoreIsProcessWide(t *testing.T) {
	if Shared() != Shared() {
		t.Error("Shared must return the process-wide store")
	}
}

// panicTarget panics on its first Run, standing in for a backend bug.
type panicTarget struct {
	name  string
	calls atomic.Int64
}

func (p *panicTarget) Name() string            { return p.name }
func (p *panicTarget) Class() device.Class     { return device.ClassGPU }
func (p *panicTarget) Role() string            { return "Test" }
func (p *panicTarget) Description() string     { return "panicking stub" }
func (p *panicTarget) CacheKey(Variant) string { return "k" }
func (p *panicTarget) Run(tr *Trace, _ Variant) (*RunStats, error) {
	if p.calls.Add(1) == 1 {
		panic("backend bug")
	}
	return &RunStats{Network: tr.Network, Target: p.name, Seconds: 1}, nil
}

// TestRunPanicIsolatedAndNotCached: a panicking backend becomes a cell
// error (not a process crash), is not cached, and the retry succeeds.
func TestRunPanicIsolatedAndNotCached(t *testing.T) {
	store := NewStore()
	tgt := &panicTarget{name: "flaky"}
	v := DefaultVariant(gpusim.FastSampling())
	_, err := store.Run(tgt, "GRU", v)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("first Run = %v, want recovered panic error", err)
	}
	rs, err := store.Run(tgt, "GRU", v)
	if err != nil || rs == nil {
		t.Fatalf("retry after panic = %+v, %v", rs, err)
	}
	if st := store.Stats(); st.Runs != 1 {
		t.Fatalf("store entries after panic+retry = %+v", st)
	}
}
