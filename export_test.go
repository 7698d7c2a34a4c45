package tango

import (
	"time"

	"tango/internal/resilience"
	"tango/internal/target"
)

// MetricsText renders a snapshot through appendServerMetrics, the function
// GET /metrics runs, so the external golden test pins the served bytes.
func MetricsText(st ServerStats) string {
	var w promWriter
	appendServerMetrics(&w, st)
	return w.b.String()
}

// WithIsolatedCache gives an experiment session a private trace/run store
// instead of the process-wide shared one, so it recomputes every cell from
// scratch.
func WithIsolatedCache() ExperimentOption {
	return func(s *experimentSettings) { s.opts.Store = target.NewStore() }
}

// SetBreakerCooldown gives every breaker of a server that has served no
// request yet the cooldown d, keeping the default threshold, so a test can
// hold a tripped breaker open however slowly it runs.
func SetBreakerCooldown(s *Server, d time.Duration) {
	for _, m := range s.models {
		m.breaker = resilience.NewBreaker(resilience.BreakerConfig{Cooldown: d})
	}
}
