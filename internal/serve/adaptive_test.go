package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// histWith builds a cumulative histogram whose samples all land in the
// bucket holding d, with the given count.
func histWith(d time.Duration, count uint64) []uint64 {
	h := make([]uint64, len(LatencyBuckets)+1)
	h[latencyBucket(d)] = count
	return h
}

func TestLatencyBucketBounds(t *testing.T) {
	if got := latencyBucket(0); got != 0 {
		t.Fatalf("bucket(0) = %d, want 0", got)
	}
	for i, ub := range LatencyBuckets {
		if got := latencyBucket(ub); got != i {
			t.Errorf("bucket(%v) = %d, want %d (bounds are inclusive)", ub, got, i)
		}
		if got := latencyBucket(ub + 1); got != i+1 {
			t.Errorf("bucket(%v+1ns) = %d, want %d", ub, got, i+1)
		}
	}
	last := LatencyBuckets[len(LatencyBuckets)-1]
	if got := latencyBucket(10 * last); got != len(LatencyBuckets) {
		t.Fatalf("bucket(huge) = %d, want +Inf slot %d", got, len(LatencyBuckets))
	}
}

func TestHistogramP99Delta(t *testing.T) {
	// 100 samples at 1ms, then 100 more at 100ms: the delta p99 must see
	// only the second hundred.
	prev := histWith(time.Millisecond, 100)
	cur := histWith(time.Millisecond, 100)
	cur[latencyBucket(100*time.Millisecond)] += 100
	if got := HistogramP99(cur, prev, 100); got != 100*time.Millisecond {
		t.Fatalf("delta p99 = %v, want 100ms", got)
	}
	// Full-history p99 over both hundreds still lands in the slow bucket
	// (rank 198 of 200).
	if got := HistogramP99(cur, nil, 200); got != 100*time.Millisecond {
		t.Fatalf("cumulative p99 = %v, want 100ms", got)
	}
	// 99 fast + 1 slow: rank ceil(0.99*100)=99 stays in the fast bucket.
	mixed := histWith(time.Millisecond, 99)
	mixed[latencyBucket(time.Second)] = 1
	if got := HistogramP99(mixed, nil, 100); got != time.Millisecond {
		t.Fatalf("99/1 p99 = %v, want 1ms", got)
	}
	// 9 fast + 1 slow: rank ceil(0.99*10)=10 reaches the slow bucket.
	small := histWith(time.Millisecond, 9)
	small[latencyBucket(time.Second)] = 1
	if got := HistogramP99(small, nil, 10); got != time.Second {
		t.Fatalf("9/1 p99 = %v, want 1s", got)
	}
	if got := HistogramP99(nil, nil, 0); got != 0 {
		t.Fatalf("empty p99 = %v, want 0", got)
	}
	// +Inf samples report pessimistically: twice the last finite bound.
	inf := make([]uint64, len(LatencyBuckets)+1)
	inf[len(LatencyBuckets)] = 10
	want := 2 * LatencyBuckets[len(LatencyBuckets)-1]
	if got := HistogramP99(inf, nil, 10); got != want {
		t.Fatalf("+Inf p99 = %v, want %v", got, want)
	}
}

func TestControllerStartsAtFloor(t *testing.T) {
	c := NewController(ControllerConfig{SLO: 100 * time.Millisecond, MaxBatch: 16})
	if got := c.Delay(); got != 0 {
		t.Fatalf("cold controller delay = %v, want 0 (floor)", got)
	}
}

func TestControllerCeilingIsHalfSLO(t *testing.T) {
	// An explicit MaxDelay above SLO/2 is clamped: the window alone must
	// never spend more than half the latency budget.
	c := NewController(ControllerConfig{SLO: 10 * time.Millisecond, MaxBatch: 2, MaxDelay: time.Second})
	now := time.Unix(0, 0)
	hist := make([]uint64, len(LatencyBuckets)+1)
	c.Observe(now, 0, hist, 0) // arm the clock
	for i := 0; i < 50; i++ {
		now = now.Add(DefaultControlInterval)
		c.Observe(now, 100, hist, 0) // heavy pressure, no latency samples
	}
	if got, want := c.Delay(), 5*time.Millisecond; got != want {
		t.Fatalf("saturated window = %v, want SLO/2 = %v", got, want)
	}
}

func TestControllerGrowsUnderPressure(t *testing.T) {
	c := NewController(ControllerConfig{SLO: time.Second, MaxBatch: 16})
	now := time.Unix(0, 0)
	hist := histWith(time.Millisecond, 100) // p99 well under SLO
	c.Observe(now, 0, hist, 100)

	// Queue at half the max batch: grow.
	now = now.Add(DefaultControlInterval)
	d, changed := c.Observe(now, 8, hist, 100)
	if !changed || d != growStep {
		t.Fatalf("first grow: delay = %v changed=%v, want %v true", d, changed, growStep)
	}
	now = now.Add(DefaultControlInterval)
	d, _ = c.Observe(now, 8, hist, 100)
	if want := growStep*3/2 + growStep; d != want {
		t.Fatalf("second grow: delay = %v, want %v", d, want)
	}
	if d > c.cfg.MaxDelay {
		t.Fatalf("grew past ceiling: %v > %v", d, c.cfg.MaxDelay)
	}
}

func TestControllerHalvesOverSLO(t *testing.T) {
	c := NewController(ControllerConfig{SLO: 10 * time.Millisecond, MaxBatch: 16})
	now := time.Unix(0, 0)
	fast := histWith(time.Millisecond, 100)
	c.Observe(now, 0, fast, 100)

	// Pump the window to the ceiling under pressure.
	for i := 0; i < 20; i++ {
		now = now.Add(DefaultControlInterval)
		c.Observe(now, 16, fast, 100)
	}
	if c.Delay() != 5*time.Millisecond {
		t.Fatalf("setup: window = %v, want 5ms ceiling", c.Delay())
	}

	// New samples blow the SLO: the window halves even though the queue is
	// still deep (SLO violation outranks pressure).
	slow := append([]uint64(nil), fast...)
	slow[latencyBucket(50*time.Millisecond)] += 100
	now = now.Add(DefaultControlInterval)
	d, changed := c.Observe(now, 16, slow, 200)
	if !changed || d != 2500*time.Microsecond {
		t.Fatalf("over-SLO: delay = %v changed=%v, want 2.5ms true", d, changed)
	}
}

func TestControllerDecaysWhenIdle(t *testing.T) {
	c := NewController(ControllerConfig{SLO: time.Second, MaxBatch: 16})
	now := time.Unix(0, 0)
	hist := histWith(time.Millisecond, 10)
	c.Observe(now, 0, hist, 10)

	// Grow first.
	for i := 0; i < 30; i++ {
		now = now.Add(DefaultControlInterval)
		c.Observe(now, 16, hist, 10)
	}
	high := c.Delay()
	if high <= time.Millisecond {
		t.Fatalf("setup: window did not grow: %v", high)
	}

	// Light load: decay 0.75x per interval down to the floor.
	prev := high
	for i := 0; i < 100; i++ {
		now = now.Add(DefaultControlInterval)
		d, _ := c.Observe(now, 0, hist, 10)
		if d > prev {
			t.Fatalf("decay increased window: %v -> %v", prev, d)
		}
		prev = d
	}
	if prev != 0 {
		t.Fatalf("decayed window = %v, want 0 floor", prev)
	}
}

func TestControllerRateLimited(t *testing.T) {
	c := NewController(ControllerConfig{SLO: time.Second, MaxBatch: 16})
	now := time.Unix(0, 0)
	hist := make([]uint64, len(LatencyBuckets)+1)
	c.Observe(now, 0, hist, 0)

	// Observations inside the interval change nothing, however loud the
	// pressure signal.
	for i := 0; i < 4; i++ {
		now = now.Add(DefaultControlInterval / 5)
		if d, changed := c.Observe(now, 100, hist, 0); changed || d != 0 {
			t.Fatalf("intra-interval observe changed window: %v", d)
		}
	}
	// Crossing the interval applies the pending signal.
	now = now.Add(DefaultControlInterval)
	if d, changed := c.Observe(now, 100, hist, 0); !changed || d != growStep {
		t.Fatalf("post-interval observe: delay = %v changed=%v, want %v true", d, changed, growStep)
	}
}

// TestBatcherAdaptiveSLOCeiling checks the end-to-end wiring: a Batcher
// built with an SLO derives an adaptive window capped at min(MaxDelay,
// SLO/2) and starts at the floor.
func TestBatcherAdaptiveSLOCeiling(t *testing.T) {
	b := NewBatcher(Config{MaxBatch: 8, MaxDelay: time.Second, SLO: 20 * time.Millisecond},
		func(ins []int) ([]int, error) { return ins, nil })
	defer b.Close()
	if b.ctl == nil {
		t.Fatal("SLO did not enable the controller")
	}
	if got, want := b.ctl.cfg.MaxDelay, 10*time.Millisecond; got != want {
		t.Fatalf("adaptive ceiling = %v, want %v (SLO/2)", got, want)
	}
	if b.Delay() != 0 {
		t.Fatalf("adaptive window starts at %v, want 0", b.Delay())
	}
	if b.Stats().CurrentDelay != 0 {
		t.Fatalf("stats window = %v, want 0", b.Stats().CurrentDelay)
	}
}

// TestBatcherAdaptiveBeatsStaticSequential is the light-load half of the
// adaptive claim: sequential lone requests against a static batcher pay the
// full max-delay window every time, while the adaptive window stays at zero
// (no queue pressure, no SLO violation) and serves them immediately.
func TestBatcherAdaptiveBeatsStaticSequential(t *testing.T) {
	const (
		n      = 10
		window = 50 * time.Millisecond
		// Each lone request waits out the full static window: a hard floor
		// for the static run, and the bar the adaptive run must come in under
		// (a constant, not the other measurement).
		floor = n * window
	)
	run := func(ins []int) ([]int, error) { return ins, nil }

	static := NewBatcher(Config{MaxBatch: 8, MaxDelay: window}, run)
	defer static.Close()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := static.Do(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < floor {
		t.Fatalf("static elapsed %v, expected >= %v", elapsed, floor)
	}

	adaptive := NewBatcher(Config{MaxBatch: 8, MaxDelay: window, SLO: 40 * time.Millisecond}, run)
	defer adaptive.Close()
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := adaptive.Do(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed >= floor {
		t.Fatalf("adaptive took %v at light load: it waited out the %v of static windows", elapsed, floor)
	}
	if d := adaptive.Delay(); d != 0 {
		t.Fatalf("adaptive window = %v after light load, want 0", d)
	}
}

// TestBatcherAdaptiveGrowsUnderPressure checks the other half: a deep queue
// of concurrent requests pushes the adaptive window above zero (trading
// delay for batch fill) while the SLO keeps it bounded by SLO/2.
func TestBatcherAdaptiveGrowsUnderPressure(t *testing.T) {
	b := NewBatcher(Config{MaxBatch: 4, QueueDepth: 256, SLO: 5 * time.Second},
		func(ins []int) ([]int, error) {
			time.Sleep(3 * time.Millisecond)
			return ins, nil
		})
	defer b.Close()

	stop := make(chan struct{})
	var maxDelay atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := int64(b.Delay()); d > maxDelay.Load() {
				maxDelay.Store(d)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Do(context.Background(), i); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	close(stop)

	if maxDelay.Load() == 0 {
		t.Fatal("adaptive window never grew under a 64-deep queue")
	}
	if got, ceil := time.Duration(maxDelay.Load()), 2500*time.Millisecond; got > ceil {
		t.Fatalf("window %v exceeded SLO/2 ceiling %v", got, ceil)
	}
	if mean := b.Stats().MeanBatchSize; mean <= 1 {
		t.Fatalf("mean batch size %v under pressure, want > 1", mean)
	}
}
