package tango

import (
	"net/http"
	"net/http/httptest"
	"time"

	"tango/internal/serve"
	"tango/internal/target"
)

// MetricsText renders a snapshot through serve.MetricsText, the function
// GET /metrics runs, so the external golden test pins the served bytes.
func MetricsText(st ServerStats) string { return serve.MetricsText(st) }

// StatsJSON encodes a snapshot through serve.WriteJSON, the encoder GET
// /v1/stats runs, so the external golden test pins the served field names
// and order.
func StatsJSON(st ServerStats) string {
	rec := httptest.NewRecorder()
	serve.WriteJSON(rec, http.StatusOK, st)
	return rec.Body.String()
}

// WithIsolatedCache gives an experiment session a private trace/run store
// instead of the process-wide shared one, so it recomputes every cell from
// scratch.
func WithIsolatedCache() ExperimentOption {
	return func(s *experimentSettings) { s.opts.Store = target.NewStore() }
}

// SetSimulateStore routes Simulate and Sweep at st, or back at the
// process-wide store when st is nil, so a benchmark can time cold runs.
func SetSimulateStore(st *target.Store) {
	sweepStore = target.Shared
	if st != nil {
		sweepStore = func() *target.Store { return st }
	}
}

// SetBreakerClock gives every breaker of a server that has served no
// request yet the clock now, so a test can hold a tripped breaker open
// however slowly it runs.
func SetBreakerClock(s *Server, now func() time.Time) { s.srv.SetBreakerClock(now) }
