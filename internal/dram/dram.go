// Package dram models the off-chip memory system of the simulated GPU as a
// set of memory partitions with a fixed access latency and a bandwidth limit
// expressed as a minimum issue interval between requests per partition.
package dram

import "fmt"

// Config describes the DRAM model.
type Config struct {
	// Partitions is the number of memory partitions (channels).
	Partitions int
	// LatencyCycles is the round-trip latency of one request in core cycles.
	LatencyCycles int
	// BytesPerRequest is the transfer granularity (one cache line).
	BytesPerRequest int
	// IssueIntervalCycles is the minimum spacing between requests serviced by
	// one partition, encoding the bandwidth limit.
	IssueIntervalCycles int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Partitions <= 0 {
		return fmt.Errorf("dram: partitions must be positive")
	}
	if c.LatencyCycles <= 0 || c.BytesPerRequest <= 0 || c.IssueIntervalCycles <= 0 {
		return fmt.Errorf("dram: latency, request size and issue interval must be positive")
	}
	return nil
}

// DefaultConfig returns a DRAM model derived from a device's bandwidth and
// core clock: the issue interval is chosen so that the aggregate bandwidth of
// all partitions matches bandwidthGBs at the given core clock.
func DefaultConfig(bandwidthGBs float64, coreClockMHz int) Config {
	cfg := Config{
		Partitions:      8,
		LatencyCycles:   350,
		BytesPerRequest: 128,
	}
	if bandwidthGBs <= 0 || coreClockMHz <= 0 {
		cfg.IssueIntervalCycles = 4
		return cfg
	}
	// bytes per core cycle the whole DRAM must sustain.
	bytesPerCycle := bandwidthGBs * 1e9 / (float64(coreClockMHz) * 1e6)
	perPartition := bytesPerCycle / float64(cfg.Partitions)
	interval := float64(cfg.BytesPerRequest) / perPartition
	if interval < 1 {
		interval = 1
	}
	if interval > 64 {
		interval = 64
	}
	cfg.IssueIntervalCycles = int(interval + 0.5)
	return cfg
}

// Stats aggregates DRAM activity.
type Stats struct {
	Requests      int64
	ReadRequests  int64
	WriteRequests int64
	StallCycles   int64
	BytesMoved    int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Requests += other.Requests
	s.ReadRequests += other.ReadRequests
	s.WriteRequests += other.WriteRequests
	s.StallCycles += other.StallCycles
	s.BytesMoved += other.BytesMoved
}

// DRAM services memory requests with per-partition bandwidth limits.
type DRAM struct {
	cfg Config
	// nextFree is the earliest cycle each partition can accept a request.
	nextFree []int64
	stats    Stats
}

// New constructs a DRAM model.
func New(cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DRAM{cfg: cfg, nextFree: make([]int64, cfg.Partitions)}, nil
}

// Stats returns the accumulated statistics.
func (d *DRAM) Stats() Stats { return d.stats }

// Reset idles every partition and clears the statistics, leaving exactly
// the state New returns.
func (d *DRAM) Reset() {
	clear(d.nextFree)
	d.stats = Stats{}
}

// Access schedules one request for the line containing addr at time `now`
// (in cycles) and returns the cycle at which the data is available.  The
// partition is selected by address interleaving at line granularity.
func (d *DRAM) Access(addr uint64, isWrite bool, now int64) (ready int64) {
	part := int(addr/uint64(d.cfg.BytesPerRequest)) % d.cfg.Partitions
	start := now
	if d.nextFree[part] > start {
		d.stats.StallCycles += d.nextFree[part] - start
		start = d.nextFree[part]
	}
	d.nextFree[part] = start + int64(d.cfg.IssueIntervalCycles)

	d.stats.Requests++
	if isWrite {
		d.stats.WriteRequests++
	} else {
		d.stats.ReadRequests++
	}
	d.stats.BytesMoved += int64(d.cfg.BytesPerRequest)
	return start + int64(d.cfg.LatencyCycles)
}
