// Package serve implements the dynamic-batching request scheduler behind
// tango.Server: concurrent independent requests are coalesced into batches
// so the batched compute engine (ClassifyBatch / ForecastBatch) is what runs
// under load, not N single-sample passes.
//
// The core type is the generic Batcher.  Requests enter a bounded queue
// (backpressure: a full queue rejects immediately with ErrQueueFull rather
// than blocking the client); a single dispatcher goroutine forms batches
// under a max-batch-size / max-queue-delay policy and runs them through a
// caller-supplied batch function.  Closing a batcher drains every queued
// request before returning, so graceful shutdown loses nothing that was
// accepted.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/resilience"
)

// PointBatchRun is the fault-injection site fired at the top of every
// batch-function invocation (including bisection sub-batches): a chaos
// plan can make batch runs fail, stall or panic, and what is under test
// is that the batcher degrades per-sample instead of crashing or failing
// whole batches.
var PointBatchRun = resilience.Register("serve.batch.run", "before each batch-function run (incl. bisection sub-batches)")

// ErrQueueFull is returned by Do when the request queue is at capacity.
// It is a fast, non-blocking rejection: the caller can retry, shed load, or
// surface it as HTTP 429.
var ErrQueueFull = errors.New("serve: request queue full")

// ErrClosed is returned by Do once Close has begun: the batcher no longer
// accepts new requests (already-queued requests still complete).
var ErrClosed = errors.New("serve: batcher closed")

// Config sets the batching policy of a Batcher.
type Config struct {
	// MaxBatch is the largest batch the dispatcher forms.  A batch is
	// flushed as soon as it reaches MaxBatch requests.  Values below 1 use
	// DefaultMaxBatch.
	MaxBatch int
	// MaxDelay bounds how long the oldest request of a forming batch waits
	// for company.  Zero flushes as soon as the queue is momentarily empty
	// (greedy batching with no artificial delay).
	MaxDelay time.Duration
	// QueueDepth is the bounded queue capacity; submissions beyond it are
	// rejected with ErrQueueFull.  Values below 1 use DefaultQueueDepth.
	QueueDepth int
	// SLO, when positive, turns the fixed MaxDelay window into an adaptive
	// one: a per-batcher Controller tunes the window between zero and
	// min(MaxDelay, SLO/2) from observed queue depth and p99 latency so the
	// batcher meets the per-request p99 target at light load and still
	// fills batches under pressure.  Zero keeps the static MaxDelay window.
	SLO time.Duration
}

// Policy defaults, used when the corresponding Config field is unset.
const (
	DefaultMaxBatch   = 16
	DefaultQueueDepth = 256
)

// WithDefaults returns the config with unset fields filled in; it is the
// single source of the effective policy (NewBatcher applies it, and callers
// sizing prewarm work against the effective MaxBatch reuse it).
func (c Config) WithDefaults() Config {
	if c.MaxBatch < 1 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxDelay < 0 {
		c.MaxDelay = 0
	}
	if c.SLO < 0 {
		c.SLO = 0
	}
	return c
}

// outcome is the terminal state of one request.
type outcome[Out any] struct {
	out Out
	err error
}

// request is one queued unit of work.
type request[In, Out any] struct {
	ctx context.Context
	in  In
	// done is buffered (capacity 1) so the dispatcher never blocks on a
	// caller that gave up waiting.
	done chan outcome[Out]
	enq  time.Time
}

// Batcher coalesces concurrent Do calls into batched invocations of a run
// function.  In is the per-request input, Out the per-request result; run
// must return exactly one Out per In, in order.
type Batcher[In, Out any] struct {
	cfg   Config
	run   func([]In) ([]Out, error)
	stats *collector

	// delay is the batch window the dispatcher honours, in nanoseconds.
	// Static batchers pin it to cfg.MaxDelay; adaptive ones (cfg.SLO > 0)
	// have the controller retune it after every flush.  It is atomic only
	// so Stats/Delay can read it from other goroutines.
	delay atomic.Int64
	// ctl and ctlHist belong to the dispatcher goroutine alone: the
	// controller's state is unsynchronized, and ctlHist is its reusable
	// histogram-snapshot buffer.
	ctl     *Controller
	ctlHist []uint64

	// mu guards closed and orders Do's channel send against Close's
	// close(reqs): submissions hold it shared, Close exclusively.
	mu     sync.RWMutex
	closed bool
	reqs   chan request[In, Out]
	// done is closed when the dispatcher goroutine exits (queue fully
	// drained).
	done chan struct{}
}

// NewBatcher starts a batcher with the given policy over a batch run
// function.  The caller owns the returned batcher and must Close it to stop
// the dispatcher goroutine.
func NewBatcher[In, Out any](cfg Config, run func([]In) ([]Out, error)) *Batcher[In, Out] {
	cfg = cfg.WithDefaults()
	return newBatcher(cfg, run, new(collector))
}

// newBatcher starts a batcher with a defaulted policy that counts into
// stats, which a Server keeps per model across the batchers it loads.
func newBatcher[In, Out any](cfg Config, run func([]In) ([]Out, error), stats *collector) *Batcher[In, Out] {
	b := &Batcher[In, Out]{
		cfg:   cfg,
		run:   run,
		stats: stats,
		reqs:  make(chan request[In, Out], cfg.QueueDepth),
		done:  make(chan struct{}),
	}
	stats.size(cfg.MaxBatch)
	if cfg.SLO > 0 {
		b.ctl = NewController(ControllerConfig{
			SLO:      cfg.SLO,
			MaxBatch: cfg.MaxBatch,
			MaxDelay: cfg.MaxDelay,
		})
		b.ctlHist = make([]uint64, len(LatencyBuckets)+1)
		b.delay.Store(int64(b.ctl.Delay()))
	} else {
		b.delay.Store(int64(cfg.MaxDelay))
	}
	go b.dispatch()
	return b
}

// Config returns the batcher's effective (defaulted) policy.
func (b *Batcher[In, Out]) Config() Config { return b.cfg }

// QueueLen returns the number of requests currently waiting in the
// bounded queue; QueueCap returns the queue's capacity.  Together they
// give admission layers the occupancy signal for priority-based load
// shedding.
func (b *Batcher[In, Out]) QueueLen() int { return len(b.reqs) }

// QueueCap returns the bounded queue's capacity.
func (b *Batcher[In, Out]) QueueCap() int { return cap(b.reqs) }

// Delay returns the batch window currently in effect: cfg.MaxDelay for a
// static batcher, the adaptive controller's live window otherwise.
func (b *Batcher[In, Out]) Delay() time.Duration { return time.Duration(b.delay.Load()) }

// Do submits one request and blocks until its batch has run or ctx is done.
// A nil ctx is treated as context.Background().  It returns ErrQueueFull
// immediately when the queue is at capacity and ErrClosed after Close has
// begun.  The input is retained until the batch runs; callers must not
// mutate it before Do returns.
func (b *Batcher[In, Out]) Do(ctx context.Context, in In) (Out, error) {
	var zero Out
	if ctx == nil {
		ctx = context.Background()
	}
	// Fast-fail pre-canceled requests: a dead request must not occupy a
	// bounded queue slot until batch formation gets around to dropping it.
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	r := request[In, Out]{
		ctx:  ctx,
		in:   in,
		done: make(chan outcome[Out], 1),
		enq:  time.Now(),
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		b.stats.count(func(n *Counters) { n.RejectedClosed++ })
		return zero, ErrClosed
	}
	// Count the submission BEFORE the request becomes visible to the
	// dispatcher: the channel send happens-before the dispatcher's receive,
	// so a Stats snapshot can never observe a request completed but not
	// submitted (Completed > Submitted).  A bounced send undoes the count.
	b.stats.count(func(n *Counters) { n.Submitted++ })
	select {
	case b.reqs <- r:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.stats.count(func(n *Counters) { n.Submitted--; n.RejectedQueueFull++ })
		return zero, ErrQueueFull
	}
	select {
	case o := <-r.done:
		return o.out, o.err
	case <-ctx.Done():
		// Both arms may be ready at once (deadline lands as the batch
		// completes); prefer the computed result over discarding it.
		select {
		case o := <-r.done:
			return o.out, o.err
		default:
		}
		// The dispatcher still runs or drops the queued request; its
		// result lands in the buffered done channel and is discarded.
		return zero, ctx.Err()
	}
}

// Close stops accepting requests, waits for every already-queued request to
// be served (graceful drain), and stops the dispatcher.  It is idempotent
// and safe to call concurrently with Do.
func (b *Batcher[In, Out]) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.reqs)
	}
	b.mu.Unlock()
	<-b.done
}

// Stats returns a point-in-time snapshot of the batcher's counters.
func (b *Batcher[In, Out]) Stats() Stats {
	s := b.stats.snapshot()
	s.CurrentDelay = b.Delay()
	return s
}

// dispatch is the single scheduler goroutine: it blocks for the first
// request, greedily absorbs whatever else is already queued, then waits out
// the remaining delay budget for the batch to fill before flushing.
func (b *Batcher[In, Out]) dispatch() {
	defer close(b.done)
	var timer *time.Timer
	batch := make([]request[In, Out], 0, b.cfg.MaxBatch)
	for {
		first, ok := <-b.reqs
		if !ok {
			return
		}
		batch = append(batch[:0], first)
		deadline := first.enq.Add(b.Delay())
	fill:
		for len(batch) < b.cfg.MaxBatch {
			// Take already-queued requests without waiting.
			select {
			case r, ok := <-b.reqs:
				if !ok {
					// Closed: flush what we have; the outer
					// receive will observe the close and exit.
					break fill
				}
				batch = append(batch, r)
				continue
			default:
			}
			wait := time.Until(deadline)
			if wait <= 0 {
				break
			}
			if timer == nil {
				timer = time.NewTimer(wait)
			} else {
				timer.Reset(wait)
			}
			select {
			case r, ok := <-b.reqs:
				if !timer.Stop() {
					<-timer.C
				}
				if !ok {
					break fill
				}
				batch = append(batch, r)
			case <-timer.C:
				break fill
			}
		}
		b.flush(batch)
		// Zero the retained slots so the flushed batch's inputs,
		// contexts and channels are collectable while the queue idles.
		clear(batch)
	}
}

// runProtected invokes the batch function, containing a panic to a batch
// error: the compute runs on the lone dispatcher goroutine, so an escaped
// panic would kill the whole batcher (and server) instead of the one batch
// — the containment net/http gives a non-batched handler per request.  It
// also normalizes a result-count mismatch into an error, and gives the
// fault-injection plan its shot before the real run.
func (b *Batcher[In, Out]) runProtected(ins []In) (outs []Out, err error) {
	defer func() {
		if p := recover(); p != nil {
			outs, err = nil, fmt.Errorf("serve: batch function panicked: %v", p)
		}
	}()
	if err := resilience.Fire(PointBatchRun); err != nil {
		return nil, err
	}
	outs, err = b.run(ins)
	if err == nil && len(outs) != len(ins) {
		return nil, fmt.Errorf("serve: batch function returned %d results for %d inputs", len(outs), len(ins))
	}
	return outs, err
}

// runSegment runs one slice of a failed batch during bisection: a segment
// that succeeds resolves all its requests; a failed segment of more than
// one request is split in half and both halves rerun; a failed singleton
// takes the failure alone.  Sub-batches are bit-identical to any other
// batch split (batching never changes numerics), so requests that merely
// shared a batch with a poisoned sample still get exactly the answer a
// solo run would have produced.
func (b *Batcher[In, Out]) runSegment(ins []In) []outcome[Out] {
	outs, err := b.runProtected(ins)
	if err == nil {
		res := make([]outcome[Out], len(ins))
		for i := range outs {
			res[i] = outcome[Out]{out: outs[i]}
		}
		return res
	}
	if len(ins) == 1 {
		b.stats.count(func(n *Counters) { n.Isolated++ })
		return []outcome[Out]{{err: fmt.Errorf("serve: sample isolated by batch bisection: %w", err)}}
	}
	b.stats.count(func(n *Counters) { n.Bisections++ })
	mid := len(ins) / 2
	return append(b.runSegment(ins[:mid]), b.runSegment(ins[mid:])...)
}

// flush drops requests whose context expired while queued, runs the
// remaining batch, and delivers per-request outcomes.  A failed batch of
// more than one request falls back to bisection so a single bad request
// degrades only itself.
func (b *Batcher[In, Out]) flush(batch []request[In, Out]) {
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			// Count before unblocking the caller so a Stats snapshot
			// taken right after Do returns already reflects it.
			b.stats.count(func(n *Counters) { n.Canceled++ })
			r.done <- outcome[Out]{err: err}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	ins := make([]In, len(live))
	for i, r := range live {
		ins[i] = r.in
	}
	outs, err := b.runProtected(ins)
	var results []outcome[Out]
	switch {
	case err == nil:
		results = make([]outcome[Out], len(live))
		for i := range outs {
			results[i] = outcome[Out]{out: outs[i]}
		}
	case len(live) == 1:
		// Nothing to isolate: the lone request owns the failure.
		results = []outcome[Out]{{err: err}}
	default:
		// Degraded mode: bisect so only the poisoned sample(s) fail.
		b.stats.count(func(n *Counters) { n.Bisections++ })
		mid := len(live) / 2
		results = append(b.runSegment(ins[:mid]), b.runSegment(ins[mid:])...)
	}
	now := time.Now()
	lats := make([]time.Duration, len(live))
	for i, r := range live {
		lats[i] = now.Sub(r.enq)
	}
	// Record the batch before unblocking its callers: a Stats snapshot
	// taken the moment Do returns must already count this batch.
	b.stats.finishBatch(len(live), err != nil, lats)
	for i, r := range live {
		r.done <- results[i]
	}
	if b.ctl != nil {
		n := b.stats.latencyCum(b.ctlHist)
		if d, changed := b.ctl.Observe(time.Now(), len(b.reqs), b.ctlHist, n); changed {
			b.delay.Store(int64(d))
		}
	}
}
