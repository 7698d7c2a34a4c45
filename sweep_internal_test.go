package tango

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tango/internal/par"
	"tango/internal/resilience"
	"tango/internal/target"
)

// coldSweepStore routes Sweep at one fresh store for the test's duration
// and returns it, so cache state can be asserted without interference from
// the process-wide shared store.
func coldSweepStore(t *testing.T) *target.Store {
	t.Helper()
	st := target.NewStore()
	prev := sweepStore
	sweepStore = func() *target.Store { return st }
	t.Cleanup(func() { sweepStore = prev })
	return st
}

// TestSweepParallelDeterminismColdStore is the white-box counterpart of the
// external sweep tests: each sweep runs against its own fresh store, so the
// parallel fan-out genuinely recomputes every cell concurrently instead of
// reading the serial run's results from the process-wide shared store.
func TestSweepParallelDeterminismColdStore(t *testing.T) {
	cfg := SweepConfig{
		Networks:     []string{"GRU", "CifarNet"},
		Targets:      []string{"gp102", "tx1", "pynq"},
		L1SizesKB:    []int{0, 64},
		FastSampling: true,
	}

	prev := sweepStore
	defer func() { sweepStore = prev }()

	sweepStore = func() *target.Store { return target.NewStore() }
	cfg.Parallelism = 1
	serial, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sweepStore = func() *target.Store { return target.NewStore() }
	cfg.Parallelism = 8
	parallel, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("cold parallel sweep differs from cold serial sweep:\n%+v\nvs\n%+v",
			serial.Records, parallel.Records)
	}
}

// TestSweepDatasetBytes pins the exact bytes of a cold fast-sampling sweep's
// CSV and JSON renderings at the default worker count, serially and on
// three workers: the column set, the fixed cells and every statistic.  A change to the dataset's shape or to any
// model on the sweep path moves one of these digests.
func TestSweepDatasetBytes(t *testing.T) {
	const (
		wantCSV  = "999f2c6202bbb0c270677ad6a7d0e5f6d43db47ff8b54ca306dc525a0aa51ba8"
		wantJSON = "99b9eae14bd370d32dfac025fd8e1f312f03b4e086e1e488e463928a973d1811"
	)
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, workers := range []int{0, 1, 3} {
		coldSweepStore(t)
		ds, err := Sweep(SweepConfig{
			Networks:     []string{"GRU", "CifarNet"},
			Targets:      []string{"gp102", "tx1", "pynq"},
			FastSampling: true,
			Parallelism:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := ds.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if got := digest([]byte(ds.CSV())); got != wantCSV {
			t.Errorf("Parallelism %d: CSV sha256 %s, want %s\n%s", workers, got, wantCSV, ds.CSV())
		}
		if got := digest(enc); got != wantJSON {
			t.Errorf("Parallelism %d: JSON sha256 %s, want %s\n%s", workers, got, wantJSON, enc)
		}
	}
}

// TestSweepFailingCellAborts checks the sweep's failure policy: a cell that
// fails aborts the whole sweep with the first error in index order, no
// dataset is returned, the failed cells are not cached, and no worker
// goroutine is left behind.
func TestSweepFailingCellAborts(t *testing.T) {
	// Fail exactly the CifarNet cells via the labeled store injection point
	// (labels are "network/target/variant").
	if err := resilience.Enable("target.run=error:1:only=CifarNet/", 1); err != nil {
		t.Fatal(err)
	}
	defer resilience.Disable()

	cfg := SweepConfig{
		Networks:     []string{"GRU", "CifarNet"},
		Targets:      []string{"gp102", "tx1", "pynq"},
		FastSampling: true,
	}
	var st *target.Store
	for _, workers := range []int{0, 1, 4} {
		check := par.CheckLeaks()
		st = coldSweepStore(t)
		cfg.Parallelism = workers
		ds, err := Sweep(cfg)
		if ds != nil || !errors.Is(err, ErrInjected) {
			t.Fatalf("Parallelism %d: Sweep = %v, %v; want nil and a wrapped ErrInjected", workers, ds, err)
		}
		if runs := st.Stats().Runs; runs != 3 {
			t.Errorf("Parallelism %d: store holds %d runs after the abort, want the 3 GRU cells", workers, runs)
		}
		check(t)
	}

	// The three cached runs are the GRU cells: a GRU-only sweep over the
	// last store computes nothing.
	resilience.Disable()
	before := st.Stats().Computes
	cfg.Networks = []string{"GRU"}
	var stats CacheStats
	cfg.CacheStats = &stats
	if _, err := Sweep(cfg); err != nil {
		t.Fatal(err)
	}
	if stats.Computes != before {
		t.Errorf("GRU-only sweep after the abort computed %d cells, want 0", stats.Computes-before)
	}
}

// TestWorkerCount pins the package's worker-count rule: zero and negative
// counts select one worker per available CPU, any other count is kept.
func TestWorkerCount(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for n, want := range map[int]int{-2: procs, 0: procs, 1: 1, 4: 4} {
		if got := workerCount(n); got != want {
			t.Errorf("workerCount(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestDefaultWorkerCountOverlapsWork is the cost check no bit test can
// make: without a worker count, a sweep, an experiment session and Simulate
// all fan out.  Each case injects sleeps that take at least 800ms on one
// worker and 200-400ms on four; sleeping needs no CPU, so the bound holds
// on a single-CPU machine.
func TestDefaultWorkerCountOverlapsWork(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct {
		name, faults string
		run          func() error
	}{
		// Four cells of 200ms each at the store's injection point.
		{"Sweep", "target.run=latency:1:200ms", func() error {
			coldSweepStore(t)
			_, err := Sweep(SweepConfig{
				Networks:     []string{"GRU", "LSTM"},
				Targets:      []string{"gp102", "pynq"},
				FastSampling: true,
			})
			return err
		}},
		// Figure 2 over GRU reads four cells, one per L1 size.
		{"ExperimentSession", "target.run=latency:1:200ms", func() error {
			s := NewExperimentSession(WithNetworks("GRU"),
				WithFastExperimentSampling(), WithIsolatedCache())
			s.PrewarmExperiment("fig2")
			_, err := s.Run("fig2")
			return err
		}},
		// GRU's two kernels, 400ms each at the worker-pool task.
		{"Simulate", "par.task=latency:1:400ms", func() error {
			b, err := LoadBenchmark("GRU")
			if err == nil {
				_, err = b.Simulate(WithFastSampling())
			}
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := resilience.Enable(c.faults, 1); err != nil {
				t.Fatal(err)
			}
			defer resilience.Disable()
			start := time.Now()
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed >= 500*time.Millisecond {
				t.Errorf("took %v at the default worker count, want under 500ms", elapsed)
			}
		})
	}
}
