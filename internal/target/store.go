package target

import (
	"fmt"
	"sync"

	"tango/internal/kernel"
	"tango/internal/networks"
	"tango/internal/resilience"
)

// PointRun is the fault-injection site fired before each cell computation
// (after the trace is resolved, before Target.Run).  Fire labels carry
// "network/target/<Variant.Key>", so a chaos plan can fail one exact sweep
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
	return singleflight(s, s.traces, network, &s.stats.TraceHits, &s.stats.TraceMisses,
		func() (*Trace, error) { return Extract(network) })
}

// Run returns the statistics of running the network's trace on the target
// under the variant, computing them on first use.  Results are keyed by the
// target's canonical variant key, so variants that resolve to the same
// effective configuration share one run.  Concurrent callers of one cell
// coalesce onto a single computation, which runs on the first caller's
// goroutine.
func (s *Store) Run(t Target, network string, v Variant) (*RunStats, error) {
	key := RunKey(t, network, v)
	return singleflight(s, s.runs, key, &s.stats.RunHits, &s.stats.RunMisses,
		func() (*RunStats, error) { return s.fillCell(key, t, network, v) })
}

// singleflight returns m[key], filling it on first use: the first caller
// counts a miss and runs fill on its goroutine; every later caller counts a
// hit and gets that result, waiting for fill if it is still running.  A
// failure leaves the cache, so the next request retries.
func singleflight[V any](s *Store, m map[string]*entry[V], key string, hits, misses *int64, fill func() (V, error)) (V, error) {
	s.mu.Lock()
	if e, ok := m[key]; ok {
		*hits++
		s.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	*misses++
	e := &entry[V]{done: make(chan struct{})}
	m[key] = e
	s.mu.Unlock()

	e.val, e.err = fill()
	if e.err != nil {
		s.mu.Lock()
		delete(m, key)
		s.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
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
// computations run on store callers' goroutines, where an escaped panic
// would kill the whole process instead of the one cell.  It increments
// Computes — the counter warm-cache acceptance tests assert stays zero —
// and fires the PointRun fault-injection site.  It does not touch the
// caches.
func (s *Store) computeCell(tr *Trace, t Target, v Variant) (rs *RunStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			rs, err = nil, fmt.Errorf("target: %s on %s panicked: %v", tr.Network, t.Name(), p)
		}
	}()
	s.bump(func(st *StoreStats) { st.Computes++ })
	if err := resilience.FireLabeled(PointRun, tr.Network+"/"+t.Name()+"/"+v.Key()); err != nil {
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
