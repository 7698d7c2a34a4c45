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

// Stats is a point-in-time snapshot of a batcher's counters.
type Stats struct {
	// Submitted counts requests accepted into the queue.
	Submitted uint64
	// Completed counts requests that received a result (including requests
	// that shared a failed batch run and received its error).
	Completed uint64
	// Canceled counts requests whose context expired while queued; they
	// were dropped at batch-formation time without running.
	Canceled uint64
	// RejectedQueueFull counts requests bounced with ErrQueueFull.
	RejectedQueueFull uint64
	// RejectedClosed counts requests bounced with ErrClosed.
	RejectedClosed uint64
	// Batches counts batches actually run; BatchErrors counts the subset
	// whose full-batch run function returned an error (before any
	// bisection fallback).
	Batches     uint64
	BatchErrors uint64
	// Bisections counts segment splits performed while isolating failed
	// batches; Isolated counts requests that still failed alone after
	// bisection (the truly poisoned samples).
	Bisections uint64
	Isolated   uint64
	// BatchSizeHist[i] counts batches of size i+1 (length = MaxBatch).
	BatchSizeHist []uint64
	// MeanBatchSize is the total number of batched requests divided by
	// Batches (0 when no batch has run).
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

// Merge returns the element-wise sum of two snapshots.  It is how a model
// lifecycle folds an evicted engine's final counters into its successor's
// live ones: counters and histograms add; the percentile window cannot be
// merged, so the snapshot with samples wins (preferring b, the live side).
func Merge(a, b Stats) Stats {
	m := Stats{
		Submitted:         a.Submitted + b.Submitted,
		Completed:         a.Completed + b.Completed,
		Canceled:          a.Canceled + b.Canceled,
		RejectedQueueFull: a.RejectedQueueFull + b.RejectedQueueFull,
		RejectedClosed:    a.RejectedClosed + b.RejectedClosed,
		Batches:           a.Batches + b.Batches,
		BatchErrors:       a.BatchErrors + b.BatchErrors,
		Bisections:        a.Bisections + b.Bisections,
		Isolated:          a.Isolated + b.Isolated,
		BatchSizeHist:     sumHist(a.BatchSizeHist, b.BatchSizeHist),
		LatencyHist:       sumHist(a.LatencyHist, b.LatencyHist),
		LatencySum:        a.LatencySum + b.LatencySum,
		LatencyP50:        a.LatencyP50,
		LatencyP99:        a.LatencyP99,
		LatencySamples:    a.LatencySamples,
		CurrentDelay:      b.CurrentDelay,
	}
	if b.LatencySamples > 0 {
		m.LatencyP50, m.LatencyP99, m.LatencySamples = b.LatencyP50, b.LatencyP99, b.LatencySamples
	}
	if m.Batches > 0 {
		// finishBatch advances Completed and the batched-request count in
		// lockstep, so Completed doubles as the batched total here.
		m.MeanBatchSize = float64(m.Completed) / float64(m.Batches)
	}
	return m
}

// sumHist adds two bucket-count slices, sized to the longer.
func sumHist(a, b []uint64) []uint64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		if i < len(a) {
			out[i] += a[i]
		}
		if i < len(b) {
			out[i] += b[i]
		}
	}
	return out
}

// collector accumulates counters under one mutex.  The hot paths take the
// lock once per request (submit/reject) or once per batch (finishBatch);
// contention is negligible next to millisecond-scale inference.
type collector struct {
	mu                sync.Mutex
	submitted         uint64
	completed         uint64
	canceled          uint64
	rejectedQueueFull uint64
	rejectedClosed    uint64
	batches           uint64
	batchErrors       uint64
	bisections        uint64
	isolated          uint64
	batchedRequests   uint64
	hist              []uint64
	lat               []time.Duration
	latNext           int
	latCount          int
	latHist           []uint64
	latSum            time.Duration
}

func (c *collector) init(maxBatch int) {
	c.hist = make([]uint64, maxBatch)
	c.lat = make([]time.Duration, latencyWindow)
	c.latHist = make([]uint64, len(LatencyBuckets)+1)
}

func (c *collector) submit() {
	c.mu.Lock()
	c.submitted++
	c.mu.Unlock()
}

// rejectFull records an ErrQueueFull bounce.  The caller counted the
// attempt via submit before trying the queue (so Submitted >= Completed
// holds at every instant); undo that here.
func (c *collector) rejectFull() {
	c.mu.Lock()
	c.submitted--
	c.rejectedQueueFull++
	c.mu.Unlock()
}

func (c *collector) rejectClosed() {
	c.mu.Lock()
	c.rejectedClosed++
	c.mu.Unlock()
}

func (c *collector) cancel() {
	c.mu.Lock()
	c.canceled++
	c.mu.Unlock()
}

// bisect records one segment split of a failed batch; isolate records one
// request that failed alone after bisection.
func (c *collector) bisect() {
	c.mu.Lock()
	c.bisections++
	c.mu.Unlock()
}

func (c *collector) isolate() {
	c.mu.Lock()
	c.isolated++
	c.mu.Unlock()
}

// finishBatch records one executed batch: its size, whether its run failed,
// and the end-to-end latency of every request it served.
func (c *collector) finishBatch(size int, failed bool, lats []time.Duration) {
	c.mu.Lock()
	c.batches++
	c.batchedRequests += uint64(size)
	c.completed += uint64(size)
	if failed {
		c.batchErrors++
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
		Submitted:         c.submitted,
		Completed:         c.completed,
		Canceled:          c.canceled,
		RejectedQueueFull: c.rejectedQueueFull,
		RejectedClosed:    c.rejectedClosed,
		Batches:           c.batches,
		BatchErrors:       c.batchErrors,
		Bisections:        c.bisections,
		Isolated:          c.isolated,
		BatchSizeHist:     append([]uint64(nil), c.hist...),
		LatencyHist:       append([]uint64(nil), c.latHist...),
		LatencySum:        c.latSum,
		LatencySamples:    c.latCount,
	}
	if c.batches > 0 {
		s.MeanBatchSize = float64(c.batchedRequests) / float64(c.batches)
	}
	window := append([]time.Duration(nil), c.lat[:c.latCount]...)
	c.mu.Unlock()

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
