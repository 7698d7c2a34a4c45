package tango

import (
	"tango/internal/resilience"
	"tango/internal/serve"
	"tango/internal/tensor"
)

// Sentinel errors of the public API, for use with errors.Is.
var (
	// ErrShape reports an input whose shape or length does not match what
	// the benchmark expects: wrong image length, empty batch, empty
	// history, ragged batch.  Every shape rejection across the suite wraps
	// this sentinel.
	ErrShape = tensor.ErrShape

	// ErrQueueFull is the Server's backpressure signal: the benchmark's
	// request queue is at capacity and the request was rejected without
	// queuing (surfaced as HTTP 429 by the tango-serve binary).
	ErrQueueFull = serve.ErrQueueFull

	// ErrServerClosed reports a request submitted after Server.Close began.
	ErrServerClosed = serve.ErrClosed

	// ErrNotServed reports a request naming a benchmark the Server was not
	// configured to serve.
	ErrNotServed = serve.ErrNotServed

	// ErrDegraded reports a request rejected because the benchmark's
	// circuit breaker is open: the engine has failed repeatedly and the
	// server is shedding work while it recovers (surfaced as HTTP 503
	// with a Retry-After hint).  The server is degraded, not dead —
	// /healthz keeps answering and probes keep testing recovery.
	ErrDegraded = serve.ErrDegraded

	// ErrInjected is the sentinel wrapped by every fault deliberately
	// injected through the resilience layer (chaos testing); use it to
	// tell injected faults from organic ones.
	ErrInjected = resilience.ErrInjected
)
