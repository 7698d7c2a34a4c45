// Package cache models the on-chip data caches of the simulated GPU: the
// per-SM L1 data cache (configurable size, bypassable, as the paper's
// Figure 2 sweep requires) and the shared L2 cache, both set-associative with
// LRU replacement and a bounded number of MSHRs for outstanding misses.
package cache

import (
	"fmt"
)

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity; zero disables (bypasses) the cache.
	SizeBytes int
	// LineBytes is the cache line (sector) size.
	LineBytes int
	// Ways is the set associativity.
	Ways int
	// MSHRs bounds the number of outstanding missed lines; zero means
	// unlimited.
	MSHRs int
	// HitLatency is the access latency in cycles on a hit.
	HitLatency int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SizeBytes < 0 {
		return fmt.Errorf("cache: negative size %d", c.SizeBytes)
	}
	if c.SizeBytes == 0 {
		return nil // bypass
	}
	if c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: line size and ways must be positive")
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line (%d*%d)", c.SizeBytes, c.Ways, c.LineBytes)
	}
	return nil
}

// Bypassed reports whether the cache is disabled.
func (c Config) Bypassed() bool { return c.SizeBytes == 0 }

// Sets returns the number of sets.
func (c Config) Sets() int {
	if c.Bypassed() {
		return 0
	}
	return c.SizeBytes / (c.LineBytes * c.Ways)
}

// DefaultL1 returns the Pascal default 64KB L1 data cache configuration.
func DefaultL1(sizeBytes int) Config {
	return Config{SizeBytes: sizeBytes, LineBytes: 128, Ways: 4, MSHRs: 32, HitLatency: 28}
}

// DefaultL2 returns a banked L2 slice configuration.
func DefaultL2(sizeBytes int) Config {
	return Config{SizeBytes: sizeBytes, LineBytes: 128, Ways: 16, MSHRs: 128, HitLatency: 120}
}

// Outcome describes the result of a cache access.
type Outcome uint8

// Access outcomes.
const (
	// Hit means the line was present.
	Hit Outcome = iota
	// Miss means the line was absent and an MSHR was allocated.
	Miss
	// MissMerged means the line was absent but an MSHR for it already exists.
	MissMerged
	// ReservationFail means no MSHR was available; the access must be
	// retried (memory throttle).
	ReservationFail
	// Bypass means the cache is disabled and the access goes straight to the
	// next level.
	Bypass
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case MissMerged:
		return "miss-merged"
	case ReservationFail:
		return "reservation-fail"
	default:
		return "bypass"
	}
}

// Stats aggregates cache activity.
type Stats struct {
	Accesses    int64
	Hits        int64
	Misses      int64
	MergedMiss  int64
	ResFails    int64
	Bypasses    int64
	Evictions   int64
	FillsArrive int64
}

// MissRatio returns misses / accesses (counting merged misses as misses).
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses+s.MergedMiss) / float64(s.Accesses)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.MergedMiss += other.MergedMiss
	s.ResFails += other.ResFails
	s.Bypasses += other.Bypasses
	s.Evictions += other.Evictions
	s.FillsArrive += other.FillsArrive
}

type line struct {
	valid bool
	tag   uint64
	lru   uint64
}

// Cache is a set-associative cache with LRU replacement and MSHR tracking.
// It is a timing model: data values are not stored, only line presence.
type Cache struct {
	cfg   Config
	sets  [][]line
	clock uint64

	// mshrs maps pending line addresses to the number of merged requests.
	mshrs map[uint64]int

	stats Stats
}

// New constructs a cache from a validated configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, mshrs: make(map[uint64]int)}
	if !cfg.Bypassed() {
		c.sets = make([][]line, cfg.Sets())
		for i := range c.sets {
			c.sets[i] = make([]line, cfg.Ways)
		}
	}
	return c, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset empties the cache — lines, LRU clock, MSHRs and statistics — leaving
// exactly the state New returns, so one model can serve consecutive kernels.
func (c *Cache) Reset() {
	for _, set := range c.sets {
		clear(set)
	}
	c.clock = 0
	clear(c.mshrs)
	c.stats = Stats{}
}

// lineAddr returns the line-aligned address.
func (c *Cache) lineAddr(addr uint64) uint64 {
	return addr / uint64(c.cfg.LineBytes)
}

// Access looks up the line containing addr.  Write accesses allocate like
// reads (the GPU L1/L2 are modelled write-allocate for simplicity of traffic
// accounting).  The outcome tells the caller whether the request hit, missed
// (allocating an MSHR), merged into an existing MSHR, or failed to reserve
// one.
func (c *Cache) Access(addr uint64, isWrite bool) Outcome {
	c.clock++
	if c.cfg.Bypassed() {
		c.stats.Bypasses++
		return Bypass
	}
	c.stats.Accesses++
	la := c.lineAddr(addr)
	setIdx := la % uint64(len(c.sets))
	set := c.sets[setIdx]
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].lru = c.clock
			c.stats.Hits++
			return Hit
		}
	}
	// Miss path.
	if _, pending := c.mshrs[la]; pending {
		c.mshrs[la]++
		c.stats.MergedMiss++
		return MissMerged
	}
	if c.cfg.MSHRs > 0 && len(c.mshrs) >= c.cfg.MSHRs {
		c.stats.ResFails++
		return ReservationFail
	}
	c.mshrs[la] = 1
	c.stats.Misses++
	return Miss
}

// Fill installs the line containing addr (a miss returning from the next
// level) and releases its MSHR.
func (c *Cache) Fill(addr uint64) {
	if c.cfg.Bypassed() {
		return
	}
	la := c.lineAddr(addr)
	delete(c.mshrs, la)
	c.stats.FillsArrive++
	setIdx := la % uint64(len(c.sets))
	set := c.sets[setIdx]
	// Already present (e.g. refetched) — just refresh.
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].lru = c.clock
			return
		}
	}
	// Choose victim: first invalid way, else LRU.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		c.stats.Evictions++
	}
	set[victim] = line{valid: true, tag: la, lru: c.clock}
}

// PendingMisses returns the number of occupied MSHRs.
func (c *Cache) PendingMisses() int { return len(c.mshrs) }

// Contains reports whether the line holding addr is resident (for tests).
func (c *Cache) Contains(addr uint64) bool {
	if c.cfg.Bypassed() {
		return false
	}
	la := c.lineAddr(addr)
	set := c.sets[la%uint64(len(c.sets))]
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return true
		}
	}
	return false
}
