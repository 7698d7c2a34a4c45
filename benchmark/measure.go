package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// engine is one constructed instance of the system under a workload.
type engine interface {
	// op runs timed operation i and verifies its output; a non-nil error is
	// a failed op.
	op(i int) error
	close()
}

// workload is one entry of the suite.  All counts are fixed per workload, so
// every slice and every set-up repeat covers the same amount of work in every
// run; only the number of slices follows --seconds.  Ops are issued by one
// caller, one after the other.
type workload struct {
	name string
	why  string
	// itemsPerOp is what the *_per_item metrics divide by (images of a
	// batch, cells of a sweep).
	itemsPerOp int
	// sliceOps is the op count of one slice (~1.2 s at baseline).
	sliceOps int
	// warmOps are run and discarded before the window.
	warmOps int
	// setupRepeats is how many fresh constructions setup_s is taken over.
	setupRepeats int
	// prepare derives the run's inputs from the seed, untimed, and returns
	// the constructor setup_s times: nothing -> first verified answer.
	prepare func(seed uint64, exp *expectedFile, env *runEnv) (func() (engine, error), error)
}

// runEnv carries what a workload needs from the invocation.
type runEnv struct {
	tmpDir string // scratch directory inside the checkout
}

// scaled shrinks the workload's counts for the smoke test.
func (w workload) scaled(div int) workload {
	shrink := func(n int) int {
		if n = n / div; n < 1 {
			n = 1
		}
		return n
	}
	w.sliceOps = shrink(w.sliceOps)
	w.warmOps = shrink(w.warmOps)
	w.setupRepeats = 1
	return w
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the outcome of one workload run.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"samples"`
	Slices    int               `json:"slices"`
	Metrics   map[string]metric `json:"metrics"`
	FirstErr  string            `json:"first_error,omitempty"`
}

// opCounter tallies attempted and failed ops across goroutines.
type opCounter struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  string
}

func (c *opCounter) record(err error) {
	c.mu.Lock()
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = err.Error()
		}
	}
	c.mu.Unlock()
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// releaseMemory drops garbage and hands freed pages back to the OS, so each
// set-up repeat starts from the same cold heap a fresh process would.
//
// Two collections, not one: a benchmark holds a sync.Pool, the runtime's list
// of pools keeps the pool (and with it the benchmark and its 244 MB of
// weights) reachable until the next collection clears that list, and only the
// collection after that frees them.  With one, AlexNet's peak RSS reads 495
// MB instead of 263.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// slice is one fixed-count stretch of the window and the unit every
// time-based metric is taken over: each slice gives its own median latency,
// tail, throughput, CPU and allocation figure, and the window reports a low
// quantile of them (see endToEndMetrics).
type slice struct {
	seconds float64 // wall time from its first op's start to its last op's end
	cpu     float64 // process CPU seconds spent in it
	mallocs uint64  // heap objects allocated in it
	p50MS   float64 // median latency of its ops
	tailMS  float64 // tail(latencies of its ops)
}

// rssSlices is the slice after which peak_rss_mb is read.  A batch workload
// leaves ~5 MB of garbage per op and the collector runs only when the heap
// has doubled, so the high-water mark at exit would follow the number of ops
// the window happened to fit; after a fixed number of ops it does not.
const rssSlices = 6

// window is the raw material of the end-to-end metrics.
type window struct {
	latMS     []float64 // one per op, in op order
	slices    []slice
	peakRSSMB float64 // VmHWM after rssSlices slices (or the last, if fewer)
}

// runSlices runs fixed-count slices of ops on eng, one caller, back to back,
// until about seconds have passed (a new slice starts only while more than
// half a slice of time is left, so the window length is seconds to within
// half a slice).  firstOp offsets the op index so the window walks on through
// the inputs.
func runSlices(w workload, eng engine, seconds float64, firstOp int, count *opCounter) window {
	var win window
	// Room for 256 slices up front: growing this inside the window would add
	// garbage and allocations that are the harness's, not the program's.
	win.latMS = make([]float64, 0, 256*w.sliceOps)
	win.slices = make([]slice, 0, 256)
	var ms runtime.MemStats
	runtime.GC()
	next := firstOp
	start := time.Now()
	for {
		runtime.ReadMemStats(&ms)
		mallocs0 := ms.Mallocs
		cpu0 := cpuSeconds()
		s0 := time.Now()
		for i := 0; i < w.sliceOps; i++ {
			o0 := time.Now()
			err := eng.op(next)
			win.latMS = append(win.latMS, float64(time.Since(o0))/1e6)
			count.record(err)
			next++
		}
		sl := slice{seconds: time.Since(s0).Seconds(), cpu: cpuSeconds() - cpu0}
		runtime.ReadMemStats(&ms)
		sl.mallocs = ms.Mallocs - mallocs0
		win.slices = append(win.slices, sl)
		if len(win.slices) <= rssSlices {
			win.peakRSSMB = peakRSSMB()
		}
		if time.Since(start).Seconds()+sl.seconds/2 >= seconds {
			break
		}
	}
	// per-slice latency statistics, after the window: sorting allocates
	for i := range win.slices {
		lats := win.latMS[i*w.sliceOps : (i+1)*w.sliceOps]
		win.slices[i].p50MS = median(lats)
		win.slices[i].tailMS = tail(lats)
	}
	return win
}

// setUp constructs the workload setupRepeats times, each from a released
// heap, and returns the last engine with every construction's wall time.
func setUp(w workload, construct func() (engine, error), count *opCounter) (eng engine, secs []float64, err error) {
	for r := 0; r < w.setupRepeats; r++ {
		if eng != nil {
			eng.close()
			eng = nil
		}
		releaseMemory()
		t0 := time.Now()
		e, cerr := construct()
		dt := time.Since(t0).Seconds()
		count.record(cerr) // the first verified answer is an op too
		if cerr != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", r, cerr)
		}
		secs = append(secs, dt)
		eng = e
	}
	return eng, secs, nil
}

// warmUp runs and discards the workload's warm-up ops; it returns the index
// of the first op of the window.  It starts with one op on each of two
// goroutines at once: the engine pools its scratch per scheduler thread
// (sync.Pool), so whether a second scratch ever gets built would otherwise
// depend on where the runtime happens to reschedule the caller, and peak RSS
// would be bimodal (490 vs 572 MB on alexnet-int8-b8).  Filling both slots
// up front puts every run in the same state.
func warmUp(w workload, eng engine, count *opCounter) int {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			count.record(eng.op(g))
		}(g)
	}
	wg.Wait()
	for i := 2; i < 2+w.warmOps; i++ {
		count.record(eng.op(i))
	}
	return 2 + w.warmOps
}

// runWorkload is the untraced metric run: set-up repeats, warm-up, then the
// timed window, all in this process.
func runWorkload(w workload, seed uint64, seconds float64, exp *expectedFile, env *runEnv) (*runResult, error) {
	construct, err := w.prepare(seed, exp, env)
	if err != nil {
		return nil, err
	}
	var count opCounter
	eng, setups, err := setUp(w, construct, &count)
	if err != nil {
		return nil, err
	}
	defer eng.close()
	first := warmUp(w, eng, &count)
	win := runSlices(w, eng, seconds, first, &count)

	return &runResult{
		Workload:  w.name,
		Seed:      seed,
		Seconds:   seconds,
		Attempted: count.attempted,
		Failed:    count.failed,
		Samples:   len(win.latMS),
		Slices:    len(win.slices),
		FirstErr:  count.firstErr,
		Metrics:   endToEndMetrics(w, win, setups),
	}, nil
}

// endToEndMetrics reduces a window and the set-up repeats to the seven
// end-to-end metrics.
//
// The machine is a few cores of a shared host: neighbours take cycles, cache
// and memory bandwidth for seconds at a time, and all they can do to a slice
// is make it slower.  The slower slices of a run therefore say how busy the
// host was, not how fast the program is, and a median over the whole window
// moved by 30-50 % between runs of the same code.  So every time-based metric
// is a low quantile of its per-slice values: the level the program reaches in
// the quiet part of the run, which a run of fifteen to twenty slices finds
// even when most of it was disturbed.  Latency, throughput and CPU take the
// better quartile.  A slice's tail is spoilt by a single disturbed op, so
// slices with a clean tail are rarer and the tail takes the first decile; a
// run has only three to twenty-five set-ups, and set-up time is the fastest
// of them.  (The minimum over slices would be steadier still under a busy
// host, but on a quiet one it follows a clock state the host grants for a
// second or two per minute.)  Allocations do not depend on the host and are
// the median over slices.
func endToEndMetrics(w workload, win window, setups []float64) map[string]metric {
	sliceItems := float64(w.sliceOps * w.itemsPerOp)
	n := len(win.slices)
	p50, tails, rate, cpu, allocs := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, sl := range win.slices {
		p50[i] = sl.p50MS
		tails[i] = sl.tailMS
		rate[i] = sliceItems / sl.seconds
		cpu[i] = sl.cpu * 1e3 / sliceItems
		allocs[i] = float64(sl.mallocs) / sliceItems
	}
	return map[string]metric{
		"setup_s":         {quantile(setups, 0), "s"},
		"p50_ms":          {quantile(p50, 0.25), "ms"},
		"tail_ms":         {quantile(tails, 0.10), "ms"},
		"items_per_s":     {quantile(rate, 0.75), "1/s"},
		"cpu_ms_per_item": {quantile(cpu, 0.25), "ms"},
		"allocs_per_item": {median(allocs), "count"},
		"peak_rss_mb":     {win.peakRSSMB, "MB"},
	}
}
