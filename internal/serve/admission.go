package serve

import (
	"context"
	"errors"
	"fmt"

	"tango/internal/resilience"
	"tango/internal/tensor"
)

// This file is the serving stack's resilience layer: priority-classed
// admission with load shedding, per-benchmark circuit breakers, request
// deadline budgets and the tri-state health model behind GET /healthz.
// Everything here runs before a request is allowed to queue.

// pointAdmit is the fault-injection site fired during request admission,
// before queueing; latency rules here model slow admission control, error
// rules model an admission-layer outage.
var pointAdmit = resilience.Register("serve.admit", "during Server request admission, before enqueue")

// Priority classifies a request for admission under load (tango.Priority
// documents the classes).
type Priority int

const (
	PriorityNormal Priority = iota // shed at shedNormalAt occupancy
	PriorityLow                    // shed at shedLowAt occupancy
	PriorityHigh                   // shed by a full queue only
)

// String returns the wire name of the priority class, as accepted in the
// X-Priority HTTP header.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityHigh:
		return "high"
	default:
		return "normal"
	}
}

// parsePriority maps a wire name ("low", "normal", "high") to a Priority;
// empty and unknown names are normal, so a malformed header degrades to the
// default class instead of erroring.
func parsePriority(s string) Priority {
	switch s {
	case "low":
		return PriorityLow
	case "high":
		return PriorityHigh
	default:
		return PriorityNormal
	}
}

// priorityKey is the context key carrying a request's priority class.
type priorityKey struct{}

// WithPriority tags a request context with a priority class; Server
// admission reads it when deciding what to shed under load.
func WithPriority(ctx context.Context, p Priority) context.Context {
	return context.WithValue(ctx, priorityKey{}, p)
}

// priorityFromContext returns the context's priority class, defaulting to
// PriorityNormal.
func priorityFromContext(ctx context.Context) Priority {
	if p, ok := ctx.Value(priorityKey{}).(Priority); ok {
		return p
	}
	return PriorityNormal
}

// Shed thresholds: the queue-occupancy fraction at or above which a class
// is rejected with a wrapped ErrQueueFull (HTTP 429 + Retry-After).
const (
	shedLowAt    = 0.5
	shedNormalAt = 0.9
)

// admit decides whether a request may enter the model's queue: the fault
// plan fires first, then the circuit breaker, then priority-classed
// occupancy shedding.  It returns nil when the request may proceed; every
// rejection maps to a fast, typed error (429 or 503) so callers can back
// off instead of timing out.  A non-nil return means the breaker slot (if
// any) has already been released.
func (s *Server) admit(ctx context.Context, m *model) error {
	if err := resilience.Fire(pointAdmit); err != nil {
		return fmt.Errorf("tango: %s admission: %w", m.name, err)
	}
	if err := m.breaker.Allow(); err != nil {
		m.stats.count(func(n *Counters) { n.ShedBreaker++ })
		return fmt.Errorf("tango: %s: %w", m.name, ErrDegraded)
	}
	// Past here the caller owns a breaker slot; release it on rejection.
	q, c := s.queueState(m)
	occ := float64(q) / float64(c)
	shedAt := 1.1 // high priority: only the hard queue-full bound sheds
	switch priorityFromContext(ctx) {
	case PriorityLow:
		shedAt = shedLowAt
	case PriorityNormal:
		shedAt = shedNormalAt
	}
	if occ >= shedAt {
		m.breaker.Forgive()
		m.stats.count(func(n *Counters) { n.ShedLoad++ })
		return fmt.Errorf("tango: %s: %s-priority request shed at queue occupancy %d/%d: %w",
			m.name, priorityFromContext(ctx), q, c, ErrQueueFull)
	}
	return nil
}

// recordOutcome feeds a request's terminal state to the model's breaker.
// Engine failures (failed batch runs, injected faults, internal errors)
// count against the breaker; client and load faults — shape rejections
// never reach here, and cancellations, deadline expiry, queue-full and
// shutdown say nothing about engine health — release the breaker slot
// without a verdict.
func (m *model) recordOutcome(err error) {
	switch {
	case err == nil:
		m.breaker.Record(nil)
	case isClientOrLoadFault(err):
		m.breaker.Forgive()
	default:
		m.breaker.Record(err)
	}
}

// isClientOrLoadFault reports whether an error says nothing about the
// compute engine's health.
func isClientOrLoadFault(err error) bool {
	for _, t := range []error{context.Canceled, context.DeadlineExceeded, ErrQueueFull, ErrClosed, tensor.ErrShape} {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// HealthStatus is the server's tri-state health (tango.HealthStatus
// documents the states).
type HealthStatus string

const (
	HealthHealthy  HealthStatus = "healthy"
	HealthDegraded HealthStatus = "degraded"
	HealthDraining HealthStatus = "draining"
)

// ModelHealth is one benchmark's slice of a health report.
type ModelHealth struct {
	Breaker   string  `json:"breaker"`
	QueueLen  int     `json:"queue_len"`
	QueueCap  int     `json:"queue_cap"`
	InFlight  int64   `json:"in_flight"`
	Occupancy float64 `json:"occupancy"`
	// Resident reports whether the model's engine is loaded; a cold model
	// is healthy — it loads on first request.
	Resident bool `json:"resident"`
}

// HealthReport is the GET /healthz body: overall status, the reasons a
// non-healthy status was chosen, and per-benchmark breaker/queue state.
type HealthReport struct {
	Status     HealthStatus           `json:"status"`
	Benchmarks []string               `json:"benchmarks"`
	Reasons    []string               `json:"reasons,omitempty"`
	Models     map[string]ModelHealth `json:"models"`
}

// Health derives the server's tri-state health from breaker and queue
// state: draining once Close has begun, degraded while any breaker is
// open/half-open or any queue is at shedding pressure, healthy otherwise.
func (s *Server) Health() HealthReport {
	rep := HealthReport{
		Status:     HealthHealthy,
		Benchmarks: s.Benchmarks(),
		Models:     make(map[string]ModelHealth, len(s.order)),
	}
	for _, m := range s.order {
		q, c := s.queueState(m)
		mh := ModelHealth{
			Breaker:  m.breaker.State().String(),
			QueueLen: q,
			QueueCap: c,
			InFlight: m.inFlight.Load(),
			Resident: m.eng.Load() != nil,
		}
		if c > 0 {
			mh.Occupancy = float64(q) / float64(c)
		}
		rep.Models[m.name] = mh
		if m.breaker.State() != resilience.BreakerClosed {
			rep.Reasons = append(rep.Reasons, fmt.Sprintf("%s: circuit breaker %s", m.name, mh.Breaker))
		}
		if mh.Occupancy >= shedNormalAt {
			rep.Reasons = append(rep.Reasons, fmt.Sprintf("%s: queue at %d/%d", m.name, q, c))
		}
	}
	if len(rep.Reasons) > 0 {
		rep.Status = HealthDegraded
	}
	if s.draining.Load() {
		rep.Status = HealthDraining
		rep.Reasons = append(rep.Reasons, "shutdown in progress")
	}
	return rep
}
