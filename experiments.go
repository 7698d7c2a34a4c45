package tango

import (
	"tango/internal/bench"
	"tango/internal/gpusim"
	"tango/internal/report"
)

// Table is a rendered experiment result: the rows or series of one of the
// paper's tables or figures.
type Table = report.Table

// ExperimentInfo identifies one reproducible table or figure.
type ExperimentInfo struct {
	// ID is the experiment key, e.g. "table3" or "fig2".
	ID string
	// Title summarizes what the experiment reports.
	Title string
}

// Experiments lists every reproducible table and figure in paper order.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range bench.Experiments() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	return out
}

// experimentSettings collects experiment options.
type experimentSettings struct {
	opts bench.Options
}

// ExperimentOption configures RunExperiment and NewExperimentSession.
type ExperimentOption func(*experimentSettings)

// WithNetworks restricts an experiment to a subset of benchmarks (useful for
// quick runs).
func WithNetworks(names ...string) ExperimentOption {
	return func(s *experimentSettings) { s.opts.Networks = names }
}

// WithFastExperimentSampling selects coarse simulator sampling for quick
// experiment runs.
func WithFastExperimentSampling() ExperimentOption {
	return func(s *experimentSettings) { s.opts.Sampling = gpusim.FastSampling() }
}

// WithExperimentParallelism computes the session's network x configuration
// simulation matrix on n concurrent workers before rendering; n <= 0, like
// no option, selects one worker per CPU (GOMAXPROCS).  Rendered tables are
// identical to a serial run (n = 1).
func WithExperimentParallelism(n int) ExperimentOption {
	return func(s *experimentSettings) { s.opts.Parallelism = n }
}

// ExperimentSession caches simulation results across experiments so a full
// report run simulates each configuration once.
type ExperimentSession struct {
	inner *bench.Session
}

// NewExperimentSession creates a session for running multiple experiments.
func NewExperimentSession(opts ...ExperimentOption) *ExperimentSession {
	attachEnvDiskCache()
	var s experimentSettings
	for _, opt := range opts {
		opt(&s)
	}
	s.opts.Parallelism = workerCount(s.opts.Parallelism)
	return &ExperimentSession{inner: bench.NewSession(s.opts)}
}

// Run executes one experiment by id ("table1".."table4", "fig1".."fig16").
func (s *ExperimentSession) Run(id string) (*Table, error) {
	return s.inner.Run(id)
}

// Prewarm computes the session's full network x configuration simulation
// matrix up front using the configured parallelism, so subsequent Run calls
// render from cache.  Simulation failures are also left for Run to report in
// deterministic order, exactly as a serial session would.
func (s *ExperimentSession) Prewarm() {
	if n := s.inner.Options().Parallelism; n > 1 {
		_ = s.inner.Prewarm(n)
	}
}

// PrewarmExperiment warms only the simulation cells the given experiment
// consumes — the right call before a single Run, where Prewarm would
// simulate the whole report matrix.
func (s *ExperimentSession) PrewarmExperiment(id string) {
	if n := s.inner.Options().Parallelism; n > 1 {
		_ = s.inner.PrewarmFor(id, n)
	}
}

// RunAll executes every experiment in paper order.
func (s *ExperimentSession) RunAll() ([]*Table, error) {
	return s.inner.RunAll()
}

// RunExperiment executes a single experiment with a fresh session.
func RunExperiment(id string, opts ...ExperimentOption) (*Table, error) {
	return NewExperimentSession(opts...).Run(id)
}
