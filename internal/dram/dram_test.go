package dram

import (
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(480, 1480).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{Partitions: 0, LatencyCycles: 100, BytesPerRequest: 128, IssueIntervalCycles: 2},
		{Partitions: 8, LatencyCycles: 0, BytesPerRequest: 128, IssueIntervalCycles: 2},
		{Partitions: 8, LatencyCycles: 100, BytesPerRequest: 0, IssueIntervalCycles: 2},
		{Partitions: 8, LatencyCycles: 100, BytesPerRequest: 128, IssueIntervalCycles: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDefaultConfigBandwidthScaling(t *testing.T) {
	fast := DefaultConfig(480, 1480) // high-bandwidth server GPU
	slow := DefaultConfig(25.6, 998) // TX1-class bandwidth
	if fast.IssueIntervalCycles >= slow.IssueIntervalCycles {
		t.Errorf("higher bandwidth should mean shorter issue interval: fast=%d slow=%d",
			fast.IssueIntervalCycles, slow.IssueIntervalCycles)
	}
	degenerate := DefaultConfig(0, 0)
	if err := degenerate.Validate(); err != nil {
		t.Errorf("degenerate config should still validate: %v", err)
	}
}

func TestAccessLatency(t *testing.T) {
	cfg := Config{Partitions: 2, LatencyCycles: 100, BytesPerRequest: 128, IssueIntervalCycles: 4}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ready := d.Access(0, false, 10)
	if ready != 110 {
		t.Errorf("uncontended access ready at %d, want 110", ready)
	}
	st := d.Stats()
	if st.Requests != 1 || st.ReadRequests != 1 || st.BytesMoved != 128 {
		t.Errorf("stats %+v", st)
	}
}

func TestBandwidthContention(t *testing.T) {
	cfg := Config{Partitions: 1, LatencyCycles: 50, BytesPerRequest: 128, IssueIntervalCycles: 10}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Back-to-back requests at the same cycle must serialize by the issue
	// interval.
	r1 := d.Access(0, false, 0)
	r2 := d.Access(128, false, 0)
	r3 := d.Access(256, true, 0)
	if r1 != 50 || r2 != 60 || r3 != 70 {
		t.Errorf("ready times %d,%d,%d; want 50,60,70", r1, r2, r3)
	}
	if d.Stats().StallCycles != 10+20 {
		t.Errorf("stall cycles = %d, want 30", d.Stats().StallCycles)
	}
	if d.Stats().WriteRequests != 1 {
		t.Errorf("write requests = %d, want 1", d.Stats().WriteRequests)
	}
}

func TestPartitionInterleaving(t *testing.T) {
	cfg := Config{Partitions: 2, LatencyCycles: 50, BytesPerRequest: 128, IssueIntervalCycles: 10}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Addresses in different partitions do not contend.
	r1 := d.Access(0, false, 0)
	r2 := d.Access(128, false, 0)
	if r1 != 50 || r2 != 50 {
		t.Errorf("independent partitions should not serialize: %d, %d", r1, r2)
	}
}

func TestStatsAddAndReset(t *testing.T) {
	a := Stats{Requests: 3, BytesMoved: 384}
	a.Add(Stats{Requests: 2, BytesMoved: 256, StallCycles: 7})
	if a.Requests != 5 || a.BytesMoved != 640 || a.StallCycles != 7 {
		t.Errorf("Add result %+v", a)
	}
	d, err := New(DefaultConfig(100, 1000))
	if err != nil {
		t.Fatal(err)
	}
	first := d.Access(0, false, 0)
	d.Reset()
	if d.Stats() != (Stats{}) {
		t.Error("Reset should clear counters")
	}
	if again := d.Access(0, false, 0); again != first {
		t.Errorf("Reset should idle the partitions: ready %d, want %d", again, first)
	}
}

// Property: the ready time never precedes request time plus latency.
func TestQuickReadyAfterLatency(t *testing.T) {
	cfg := Config{Partitions: 4, LatencyCycles: 80, BytesPerRequest: 128, IssueIntervalCycles: 6}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	f := func(addr uint32, advance uint8) bool {
		now += int64(advance)
		ready := d.Access(uint64(addr), false, now)
		return ready >= now+int64(cfg.LatencyCycles)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
