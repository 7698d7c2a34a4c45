package serve

import (
	"time"
)

// This file is the adaptive-batching control loop: a per-batcher Controller
// that tunes the batch window (the max-delay the dispatcher waits for a
// batch to fill) from two observed signals — queue depth and the recent p99
// latency recovered from the bucketed histogram — against a per-request p99
// SLO.  Under light load the window decays toward zero so lone requests are
// served at single-sample latency; under queue pressure it grows toward the
// ceiling so batches fill and throughput absorbs the load; whenever the
// observed p99 blows the SLO the window is halved regardless.
//
// The controller is deliberately pure state + arithmetic: Observe takes the
// clock as an argument, so unit tests drive it with a fake clock and the
// control law is deterministic.

// LatencyBuckets are the upper bounds of the request-latency histogram kept
// by every batcher, chosen so serving percentiles from hundreds of
// microseconds (batched LSTM) to seconds (overload) land in distinct
// buckets: p50/p99 recovered from bucket counts are accurate to one bucket
// step.  The histogram has one extra +Inf bucket beyond the last bound.
var LatencyBuckets = []time.Duration{
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
}

// latencyBucket returns the histogram slot for one observed latency.
func latencyBucket(d time.Duration) int {
	for i, ub := range LatencyBuckets {
		if d <= ub {
			return i
		}
	}
	return len(LatencyBuckets) // +Inf
}

// HistogramP99 recovers the p99 upper bound from a delta of two cumulative
// bucket snapshots: the smallest bucket bound at or below which 99% of the
// n delta samples fall.  Samples in the +Inf bucket report twice the last
// finite bound (pessimistic, so an overloaded window still trips the SLO
// comparison).  n must be the delta sample count; zero returns 0.
func HistogramP99(cur, prev []uint64, n uint64) time.Duration {
	if n == 0 {
		return 0
	}
	rank := (n*99 + 99) / 100 // ceil(0.99 * n)
	var cum uint64
	for i := range cur {
		d := cur[i]
		if prev != nil {
			d -= prev[i]
		}
		cum += d
		if cum >= rank {
			if i < len(LatencyBuckets) {
				return LatencyBuckets[i]
			}
			return 2 * LatencyBuckets[len(LatencyBuckets)-1]
		}
	}
	return 2 * LatencyBuckets[len(LatencyBuckets)-1]
}

// ControllerConfig sets the adaptive window policy.
type ControllerConfig struct {
	// SLO is the per-request p99 latency target (queue wait + compute).
	SLO time.Duration
	// MaxBatch is the batch size the window is trying to fill; queue depth
	// is judged against it for the pressure signal.
	MaxBatch int
	// MaxDelay is the window ceiling.  Zero derives SLO/2; any value is
	// clamped to SLO/2 so the window alone can never spend more than half
	// the latency budget.
	MaxDelay time.Duration
}

// DefaultControlInterval rate-limits window adjustments: observations
// closer together than this keep the current window, so one slow batch
// cannot whipsaw the control loop.
const DefaultControlInterval = 5 * time.Millisecond

// growStep is the additive kick applied when growing a zero window; without
// it a multiplicative-only law could never leave zero.
const growStep = 100 * time.Microsecond

// Controller tunes one batcher's window.  It is driven from the dispatcher
// goroutine only and holds no locks; tests drive Observe directly with a
// fake clock.
type Controller struct {
	cfg       ControllerConfig
	delay     time.Duration
	last      time.Time
	prevHist  []uint64
	prevCount uint64
}

// NewController returns a controller with the window at zero: the first
// requests of a cold server are served greedily, and the window earns
// its way up only under observed pressure.
func NewController(cfg ControllerConfig) *Controller {
	if ceiling := cfg.SLO / 2; cfg.MaxDelay <= 0 || cfg.MaxDelay > ceiling {
		cfg.MaxDelay = ceiling
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	return &Controller{cfg: cfg}
}

// Delay returns the current batch window.
func (c *Controller) Delay() time.Duration { return c.delay }

// Observe feeds one post-flush observation: the clock, the queue depth at
// flush time, and the batcher's cumulative latency histogram (bucket counts
// plus total sample count).  It returns the window to use next and whether
// it changed.  The control law, applied at most once per
// DefaultControlInterval:
//
//   - observed p99 over the SLO: halve the window — the latency budget is
//     being spent, stop adding artificial delay;
//   - queue at or above half the max batch: grow the window 1.5x toward the
//     ceiling — there is enough concurrency to fill batches, trade delay
//     for throughput;
//   - otherwise: decay the window 0.75x toward zero — light load, stop
//     taxing lone requests.
func (c *Controller) Observe(now time.Time, queueLen int, hist []uint64, count uint64) (time.Duration, bool) {
	if c.last.IsZero() {
		c.last = now
		c.snap(hist, count)
		return c.delay, false
	}
	if now.Sub(c.last) < DefaultControlInterval {
		return c.delay, false
	}
	n := count - c.prevCount
	p99 := HistogramP99(hist, c.prevHist, n)
	c.last = now
	c.snap(hist, count)

	old := c.delay
	switch {
	case n > 0 && p99 > c.cfg.SLO:
		c.delay /= 2
	case queueLen*2 >= c.cfg.MaxBatch:
		c.delay = c.delay*3/2 + growStep
	default:
		c.delay = c.delay * 3 / 4
	}
	if c.delay > c.cfg.MaxDelay {
		c.delay = c.cfg.MaxDelay
	}
	return c.delay, c.delay != old
}

// snap stores the histogram snapshot the next Observe diffs against.
func (c *Controller) snap(hist []uint64, count uint64) {
	if cap(c.prevHist) < len(hist) {
		c.prevHist = make([]uint64, len(hist))
	}
	c.prevHist = c.prevHist[:len(hist)]
	copy(c.prevHist, hist)
	c.prevCount = count
}
