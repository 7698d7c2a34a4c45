package serve

import (
	"sort"
	"sync"
	"time"
)

// latencyWindow is how many recent request latencies the percentile window
// keeps.  Percentiles are computed over this sliding window, not the full
// history, so they track current load.
const latencyWindow = 4096

// Counters are a served model's lifetime request counts, declared once:
// batchers and admission count into one record that outlives engine
// evictions, and GET /v1/stats and GET /metrics render it as it is.
type Counters struct {
	// Submitted counts requests accepted into the queue.
	Submitted uint64 `json:"submitted"`
	// Completed counts requests that received a result (including requests
	// that shared a failed batch run and received its error).
	Completed uint64 `json:"completed"`
	// Canceled counts requests whose context expired while queued; they
	// were dropped at batch-formation time without running.
	Canceled uint64 `json:"canceled"`
	// RejectedQueueFull counts requests bounced with ErrQueueFull.
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	// RejectedClosed counts requests bounced with ErrClosed.
	RejectedClosed uint64 `json:"rejected_closed"`
	// Batches counts batches actually run; BatchErrors counts the subset
	// whose full-batch run function returned an error (before any
	// bisection fallback).
	Batches     uint64 `json:"batches"`
	BatchErrors uint64 `json:"batch_errors"`
	// Bisections counts segment splits performed while isolating failed
	// batches; Isolated counts requests that still failed alone after
	// bisection (the truly poisoned samples).
	Bisections uint64 `json:"bisections"`
	Isolated   uint64 `json:"isolated"`
	// ShedLoad counts requests a Server's admission rejected at queue
	// occupancy, ShedBreaker those it rejected with the circuit breaker
	// open; neither reached the batcher.
	ShedLoad    uint64 `json:"shed_load"`
	ShedBreaker uint64 `json:"shed_breaker"`
}

// Stats is a point-in-time snapshot of a batcher's counters.
type Stats struct {
	Counters
	// BatchSizeHist[i] counts batches of size i+1 (length = MaxBatch).
	BatchSizeHist []uint64
	// MeanBatchSize is Completed divided by Batches (0 when no batch has
	// run): every completed request went through exactly one batch.
	MeanBatchSize float64
	// LatencyP50 and LatencyP99 are percentiles of end-to-end request
	// latency (queue wait + batch compute) over the recent window.
	LatencyP50 time.Duration
	LatencyP99 time.Duration
	// LatencySamples is the number of samples currently in the window.
	LatencySamples int
	// LatencyHist counts every completed request's end-to-end latency by
	// bucket (upper bounds in LatencyBuckets plus a final +Inf slot).
	// Unlike the percentile window it is cumulative over the batcher's
	// lifetime, so Prometheus-style scrapes and the adaptive controller
	// can both recover rate-windowed percentiles from deltas.
	LatencyHist []uint64
	// LatencySum is the cumulative end-to-end latency across all completed
	// requests (the histogram's _sum series).
	LatencySum time.Duration
	// CurrentDelay is the batch window in effect when the snapshot was
	// taken: the configured MaxDelay for static batchers, the controller's
	// live window for adaptive ones.
	CurrentDelay time.Duration
}

// collector accumulates counters under one mutex.  The hot paths take the
// lock once per request (submit/reject) or once per batch (finishBatch);
// contention is negligible next to millisecond-scale inference.  A Server
// hands each model's collector to every batcher the model loads, so the
// counts span evictions without being merged.  The zero value counts;
// size readies it for batches.
type collector struct {
	mu       sync.Mutex
	n        Counters
	hist     []uint64
	lat      []time.Duration
	latNext  int
	latCount int
	latHist  []uint64
	latSum   time.Duration
}

// size allocates the histograms and the latency window for batches of up
// to maxBatch, once: a model that never loaded reports no histogram.
func (c *collector) size(maxBatch int) {
	c.mu.Lock()
	if c.hist == nil {
		c.hist = make([]uint64, maxBatch)
		c.lat = make([]time.Duration, latencyWindow)
		c.latHist = make([]uint64, len(LatencyBuckets)+1)
	}
	c.mu.Unlock()
}

// count applies one change to the counters under the lock.
func (c *collector) count(f func(*Counters)) {
	c.mu.Lock()
	f(&c.n)
	c.mu.Unlock()
}

// finishBatch records one executed batch: its size, whether its run failed,
// and the end-to-end latency of every request it served.
func (c *collector) finishBatch(size int, failed bool, lats []time.Duration) {
	c.mu.Lock()
	c.n.Batches++
	c.n.Completed += uint64(size)
	if failed {
		c.n.BatchErrors++
	}
	if size >= 1 && size <= len(c.hist) {
		c.hist[size-1]++
	}
	for _, d := range lats {
		c.lat[c.latNext] = d
		c.latNext = (c.latNext + 1) % len(c.lat)
		if c.latCount < len(c.lat) {
			c.latCount++
		}
		c.latHist[latencyBucket(d)]++
		c.latSum += d
	}
	c.mu.Unlock()
}

// latencyCum copies the cumulative latency histogram into dst (which must be
// len(LatencyBuckets)+1) and returns the total sample count.  It exists for
// the adaptive controller, which diffs successive snapshots; reusing the
// caller's buffer keeps the dispatcher loop allocation-free.
func (c *collector) latencyCum(dst []uint64) uint64 {
	c.mu.Lock()
	copy(dst, c.latHist)
	var n uint64
	for _, v := range c.latHist {
		n += v
	}
	c.mu.Unlock()
	return n
}

func (c *collector) snapshot() Stats {
	c.mu.Lock()
	s := Stats{
		Counters:       c.n,
		BatchSizeHist:  append([]uint64(nil), c.hist...),
		LatencyHist:    append([]uint64(nil), c.latHist...),
		LatencySum:     c.latSum,
		LatencySamples: c.latCount,
	}
	window := append([]time.Duration(nil), c.lat[:c.latCount]...)
	c.mu.Unlock()

	if s.Batches > 0 {
		s.MeanBatchSize = float64(s.Completed) / float64(s.Batches)
	}
	if len(window) > 0 {
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		s.LatencyP50 = percentile(window, 0.50)
		s.LatencyP99 = percentile(window, 0.99)
	}
	return s
}

// percentile returns the nearest-rank percentile of a sorted sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(p*float64(len(sorted)-1)) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
