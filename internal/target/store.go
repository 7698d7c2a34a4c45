package target

import (
	"context"
	"fmt"
	"sync"

	"tango/internal/kernel"
	"tango/internal/networks"
	"tango/internal/resilience"
)

// PointRun is the fault-injection site fired before each cell computation
// (after the trace is resolved, before Target.Run).  Fire labels carry
// "network/target/variantKey", so a chaos plan can fail one exact sweep
// cell with only=.
var PointRun = resilience.Register("target.run", "before each store cell computation (label network/target/variant)")

// Trace is the extracted characterization input of one network: the built
// layer graph plus the lowered kernel list (launch geometry and per-thread
// programs).  Extraction is backend-independent — every target derives its
// statistics from the same trace — and deliberately skips weight synthesis,
// which only the native inference path needs.
type Trace struct {
	// Network is the benchmark name.
	Network string
	// Net is the built layer graph with reference shapes.
	Net *networks.Network
	// Kernels is the lowered kernel list in layer order (Table III geometry).
	Kernels []*kernel.Kernel
}

// Extract lowers a network to its layer trace.
func Extract(name string) (*Trace, error) {
	n, err := networks.New(name)
	if err != nil {
		return nil, err
	}
	ks, err := kernel.Generate(n)
	if err != nil {
		return nil, err
	}
	return &Trace{Network: n.Name, Net: n, Kernels: ks}, nil
}

// RunKey is the composite cache key of one sweep cell: the target's
// canonical registry name, the network, and the target's canonicalized
// variant key.  It identifies a run's content across every cache tier —
// the in-memory map and the disk cache (which hashes it to a filename and
// echoes it in-band).
func RunKey(t Target, network string, v Variant) string {
	return t.Name() + "\x00" + network + "\x00" + t.CacheKey(v)
}

// DiskCache is the persistent tier under a Store's in-memory map.  It is
// implemented by distcache.Cache; the interface lives here so the store
// does not depend on the cache's serialization details.  Load returns the
// cached run rebound to the trace, or false for any miss (absent, corrupt,
// stale — the store recomputes either way).  Implementations must be safe
// for concurrent use.
type DiskCache interface {
	Load(key string, tr *Trace) (*RunStats, bool)
	Store(key string, rs *RunStats) error
}

// StoreStats counts the store's cached entries and cache traffic.
type StoreStats struct {
	// Traces and Runs are the cached entry counts.
	Traces int
	Runs   int
	// TraceHits/TraceMisses and RunHits/RunMisses count lookups.  A miss is
	// the lookup that created an entry and computed it; a hit is a lookup
	// served from an existing entry, including waiting on one still being
	// computed (singleflight waiters are hits — the work happened once).
	TraceHits, TraceMisses int64
	RunHits, RunMisses     int64
	// Computes counts actual Target.Run invocations: a run miss served from
	// the disk tier fills the memory tier without computing, so Computes ≤
	// RunMisses.  A warm sweep asserts Computes==0.
	Computes int64
	// DiskHits/DiskMisses count disk-tier lookups on memory misses;
	// DiskWrites/DiskErrors count write-backs.  Disk failures are soft —
	// an error never fails the run that produced the result.
	DiskHits, DiskMisses   int64
	DiskWrites, DiskErrors int64
}

// entry is one singleflight cell: done is closed once val/err are final.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Store memoizes layer traces and per-target runs so that every figure,
// config variant and sweep over the same (network, target, configuration)
// cell computes it exactly once.  Run results live in an in-memory map for
// the life of the store, over an optional persistent disk tier
// (SetDisk): a memory miss consults the disk before computing, and every
// computed result is written back, so warm sweeps survive process
// restarts.  The store is safe for concurrent use: concurrent requests for
// one cell are coalesced onto a single computation (singleflight) and
// everyone waits for its result — including the disk lookup, which happens
// inside the singleflight slot, so one decode serves all waiters.  Failed
// computations are not cached — the next request retries, so serial render
// paths re-encounter and report errors exactly as they would without the
// store.
type Store struct {
	mu     sync.Mutex
	traces map[string]*entry[*Trace]
	runs   map[string]*entry[*RunStats]
	stats  StoreStats
	disk   DiskCache
}

// NewStore returns an empty store with no disk tier.
func NewStore() *Store {
	return &Store{
		traces: make(map[string]*entry[*Trace]),
		runs:   make(map[string]*entry[*RunStats]),
	}
}

// shared is the process-wide store: sessions, sweeps and commands share it by
// default, so repeated characterization of the same cells is free.
var shared = NewStore()

// Shared returns the process-wide store.
func Shared() *Store { return shared }

// SetDisk attaches (or, with nil, detaches) the persistent tier.  Cells
// already cached in memory are unaffected; subsequent memory misses
// consult d before computing and write computed results back to it.
func (s *Store) SetDisk(d DiskCache) {
	s.mu.Lock()
	s.disk = d
	s.mu.Unlock()
}

// Trace returns the network's layer trace, extracting it on first use.
func (s *Store) Trace(network string) (*Trace, error) {
	s.mu.Lock()
	if e, ok := s.traces[network]; ok {
		s.stats.TraceHits++
		s.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	s.stats.TraceMisses++
	e := &entry[*Trace]{done: make(chan struct{})}
	s.traces[network] = e
	s.mu.Unlock()

	e.val, e.err = Extract(network)
	if e.err != nil {
		s.mu.Lock()
		delete(s.traces, network)
		s.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
}

// Run returns the statistics of running the network's trace on the target
// under the variant, computing them on first use.  Results are keyed by the
// target's canonical variant key, so variants that resolve to the same
// effective configuration share one run.
func (s *Store) Run(t Target, network string, v Variant) (*RunStats, error) {
	return s.RunCtx(context.Background(), t, network, v)
}

// RunCtx is Run bounded by a context.  A context that is done before any
// computation starts touches nothing — the store never caches on behalf
// of a canceled caller.  When ctx carries a deadline, the cell is
// computed on a separate goroutine and the caller waits only until ctx
// expires: a hung or slow cell costs the caller its timeout, not the
// whole sweep.  The abandoned computation keeps running to completion —
// a finished result is cached for the retry (or the next sweep), a
// failure is dropped as usual, and a genuinely wedged backend parks one
// goroutine on the poisoned cell instead of wedging every future caller.
// Concurrent callers of one cell still coalesce onto a single
// computation; each waits under its own context.
func (s *Store) RunCtx(ctx context.Context, t Target, network string, v Variant) (*RunStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := RunKey(t, network, v)
	s.mu.Lock()
	if e, ok := s.runs[key]; ok {
		s.stats.RunHits++
		s.mu.Unlock()
		select {
		case <-e.done:
			return e.val, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.stats.RunMisses++
	e := &entry[*RunStats]{done: make(chan struct{})}
	s.runs[key] = e
	s.mu.Unlock()

	fill := func() {
		e.val, e.err = s.fillCell(key, t, network, v)
		if e.err != nil {
			// Failures leave the cache: the next request retries.
			s.mu.Lock()
			delete(s.runs, key)
			s.mu.Unlock()
		}
		close(e.done)
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		// No budget to enforce: compute on the caller's goroutine (the
		// pre-existing synchronous fast path, no goroutine per cell).
		fill()
		return e.val, e.err
	}
	go fill()
	select {
	case <-e.done:
		return e.val, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// fillCell resolves one memory miss inside its singleflight slot: resolve
// the trace, consult the disk tier, then compute and write the result back
// to disk.  Disk failures on either side are soft — counted, never fatal to
// the run.
func (s *Store) fillCell(key string, t Target, network string, v Variant) (*RunStats, error) {
	tr, err := s.Trace(network)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	d := s.disk
	s.mu.Unlock()
	if d != nil {
		if rs, ok := d.Load(key, tr); ok {
			s.bump(func(st *StoreStats) { st.DiskHits++ })
			return rs, nil
		}
		s.bump(func(st *StoreStats) { st.DiskMisses++ })
	}
	rs, err := s.computeCell(tr, t, v)
	if err != nil {
		return nil, err
	}
	if d != nil {
		if err := d.Store(key, rs); err != nil {
			s.bump(func(st *StoreStats) { st.DiskErrors++ })
		} else {
			s.bump(func(st *StoreStats) { st.DiskWrites++ })
		}
	}
	return rs, nil
}

// bump applies one stats mutation under the store lock.
func (s *Store) bump(f func(*StoreStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// computeCell runs the target on an already-resolved trace, converting a
// panic in the backend (or an injected one) into an error: cell
// computations run on store callers' goroutines or detached singleflight
// goroutines, where an escaped panic would kill the whole process instead
// of the one cell.  It increments Computes — the counter warm-cache
// acceptance tests assert stays zero — and fires the PointRun
// fault-injection site.  It does not touch the caches.
func (s *Store) computeCell(tr *Trace, t Target, v Variant) (rs *RunStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			rs, err = nil, fmt.Errorf("target: %s on %s panicked: %v", tr.Network, t.Name(), p)
		}
	}()
	s.bump(func(st *StoreStats) { st.Computes++ })
	if err := resilience.FireLabeled(PointRun, tr.Network+"/"+t.Name()+"/"+v.Key); err != nil {
		return nil, err
	}
	return t.Run(tr, v)
}

// Stats returns a snapshot of the store's entry counts and cache traffic.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Traces = len(s.traces)
	st.Runs = len(s.runs)
	return st
}
