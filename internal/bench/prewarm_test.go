package bench

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"tango/internal/gpusim"
	"tango/internal/target"
)

// cellLog is a disk tier that records the cells its store looks up: one
// Load per distinct cell, on the store's memory miss.  It serves them from
// runs, which every cellLog of a test shares, so each cell is simulated once
// per test however many fresh stores read it.
type cellLog struct {
	runs *sync.Map // run key -> *target.RunStats

	mu   sync.Mutex
	keys map[string]bool
}

func (l *cellLog) Load(key string, _ *target.Trace) (*target.RunStats, bool) {
	l.mu.Lock()
	l.keys[key] = true
	l.mu.Unlock()
	rs, ok := l.runs.Load(key)
	if !ok {
		return nil, false
	}
	return rs.(*target.RunStats), true
}

func (l *cellLog) Store(key string, rs *target.RunStats) error {
	l.runs.Store(key, rs)
	return nil
}

// cells returns the logged keys, sorted.
func (l *cellLog) cells() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for k := range l.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestPrewarmForCoversExperiments guards the cells mapping: after
// PrewarmFor(id), rendering the experiment must hit the run store only — no
// new run cells may appear.  Each experiment gets a fresh session with a
// private store so cells warmed for one cannot mask a gap in another.  The
// network filter keeps the sweep fast but must include a CNN from Fig6's
// {CifarNet, SqueezeNet} set, otherwise the fig6 check is vacuous.
func TestPrewarmForCoversExperiments(t *testing.T) {
	for _, e := range Experiments() {
		s := NewSession(Options{
			Networks: []string{"GRU", "CifarNet"},
			Sampling: gpusim.FastSampling(),
			Store:    target.NewStore(),
		})
		if err := s.PrewarmFor(e.ID, 2); err != nil {
			t.Fatalf("%s: prewarm: %v", e.ID, err)
		}
		warmed := s.store.Stats().Runs
		if _, err := s.Run(e.ID); err != nil {
			t.Fatalf("%s: run: %v", e.ID, err)
		}
		if got := s.store.Stats().Runs; got != warmed {
			t.Errorf("%s: render computed %d cells PrewarmFor missed (warmed %d)",
				e.ID, got-warmed, warmed)
		}
	}
}

// TestPrewarmForScopesWork verifies the single-experiment prewarm computes
// strictly fewer cells than the full matrix for a run-free table and a
// single-configuration figure.  Figure 1 reads only the CNNs, so under
// {GRU, CifarNet} it needs CifarNet's one default-GPU cell and no GRU cell.
func TestPrewarmForScopesWork(t *testing.T) {
	opts := func() Options {
		return Options{
			Networks: []string{"GRU", "CifarNet"},
			Sampling: gpusim.FastSampling(),
			Store:    target.NewStore(),
		}
	}

	s := NewSession(opts())
	if err := s.PrewarmFor("table3", 2); err != nil {
		t.Fatal(err)
	}
	if got := s.store.Stats().Runs; got != 0 {
		t.Errorf("table3 needs no runs, prewarmed %d cells", got)
	}

	s = NewSession(opts())
	if err := s.PrewarmFor("fig1", 2); err != nil {
		t.Fatal(err)
	}
	full := len(NewSession(opts()).matrix())
	if got := s.store.Stats().Runs; got != 1 {
		t.Errorf("fig1 needs 1 cell, prewarmed %d (full matrix %d)", got, full)
	}
	if got := s.store.Stats().Runs; got >= full {
		t.Errorf("scoped prewarm (%d) must be smaller than the full matrix (%d)", got, full)
	}
}

// TestPrewarmForIsExact holds PrewarmFor(id) to exactly the distinct cells a
// serial Run(id) reads: a missed cell would be simulated during the serial
// render, an extra one is simulated for nothing.  Each side gets a fresh
// store.  Under the network filter every run-reading experiment reads at
// least one cell: it holds Figure 10's ResNet, Figure 16's AlexNet, one of
// Figure 6's CNNs and GRU, which the per-layer-type figures leave out.  It
// also pins RunAll's prewarm, the whole matrix, to the union of what the
// experiments read.
func TestPrewarmForIsExact(t *testing.T) {
	runs := &sync.Map{}
	opts := Options{
		Networks: []string{"GRU", "CifarNet", "AlexNet", "ResNet"},
		Sampling: gpusim.FastSampling(),
	}
	session := func() (*Session, *cellLog) {
		log := &cellLog{runs: runs, keys: map[string]bool{}}
		o := opts
		o.Store = target.NewStore()
		o.Store.SetDisk(log)
		return NewSession(o), log
	}
	runFree := map[string]bool{"table1": true, "table2": true, "table3": true, "table4": true, "fig11": true}
	union := map[string]bool{}
	for _, e := range Experiments() {
		serial, readLog := session()
		if _, err := serial.Run(e.ID); err != nil {
			t.Fatalf("%s: run: %v", e.ID, err)
		}
		read := readLog.cells()
		warm, warmLog := session()
		if err := warm.PrewarmFor(e.ID, 2); err != nil {
			t.Fatalf("%s: prewarm: %v", e.ID, err)
		}
		warmed := warmLog.cells()
		if runFree[e.ID] != (len(read) == 0) {
			t.Errorf("%s reads %d cells under %v; want none exactly for the run-free experiments", e.ID, len(read), opts.Networks)
		}
		if !slices.Equal(warmed, read) {
			t.Errorf("%s: PrewarmFor computed %d cells, a serial Run reads %d", e.ID, len(warmed), len(read))
		}
		for _, k := range read {
			union[k] = true
		}
	}
	s, _ := session()
	matrix := map[string]bool{}
	for _, c := range s.matrix() {
		matrix[target.RunKey(c.t, c.network, c.v)] = true
	}
	if len(matrix) != len(union) {
		t.Errorf("RunAll prewarms %d cells, the experiments read %d", len(matrix), len(union))
	}
	for k := range union {
		if !matrix[k] {
			t.Errorf("RunAll's matrix misses a cell an experiment reads: %q", k)
		}
	}
}
