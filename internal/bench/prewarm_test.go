package bench

import (
	"testing"

	"tango/internal/gpusim"
	"tango/internal/target"
)

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
// single-configuration figure.
func TestPrewarmForScopesWork(t *testing.T) {
	opts := func() Options {
		return Options{
			Networks: []string{"GRU"},
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
