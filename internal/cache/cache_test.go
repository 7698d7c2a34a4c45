package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := DefaultL1(64 << 10)
	if err := good.Validate(); err != nil {
		t.Errorf("default L1 config invalid: %v", err)
	}
	if good.Sets() != 128 {
		t.Errorf("64KB/128B/4-way should have 128 sets, got %d", good.Sets())
	}
	bypass := Config{SizeBytes: 0}
	if err := bypass.Validate(); err != nil {
		t.Errorf("bypass config should validate: %v", err)
	}
	if !bypass.Bypassed() || bypass.Sets() != 0 {
		t.Error("zero-size cache should be bypassed")
	}
	bad := []Config{
		{SizeBytes: -1},
		{SizeBytes: 1024, LineBytes: 0, Ways: 4},
		{SizeBytes: 1000, LineBytes: 128, Ways: 4}, // not divisible
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestBypassedCache(t *testing.T) {
	c := mustCache(t, Config{SizeBytes: 0})
	for i := 0; i < 10; i++ {
		if out := c.Access(uint64(i*128), false); out != Bypass {
			t.Fatalf("bypassed cache returned %v", out)
		}
	}
	if c.Stats().Bypasses != 10 {
		t.Errorf("bypass count = %d, want 10", c.Stats().Bypasses)
	}
	c.Fill(0) // must not panic
	if c.Contains(0) {
		t.Error("bypassed cache should contain nothing")
	}
}

func TestMissFillHit(t *testing.T) {
	c := mustCache(t, DefaultL1(64<<10))
	if out := c.Access(0x1000, false); out != Miss {
		t.Fatalf("first access = %v, want miss", out)
	}
	c.Fill(0x1000)
	if out := c.Access(0x1000, false); out != Hit {
		t.Fatalf("post-fill access = %v, want hit", out)
	}
	// Same line, different word.
	if out := c.Access(0x1004, false); out != Hit {
		t.Fatalf("same-line access = %v, want hit", out)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.MissRatio() <= 0.3 || st.MissRatio() >= 0.4 {
		t.Errorf("miss ratio = %v, want 1/3", st.MissRatio())
	}
}

func TestMissMerging(t *testing.T) {
	c := mustCache(t, DefaultL1(64<<10))
	if out := c.Access(0x2000, false); out != Miss {
		t.Fatalf("first access = %v", out)
	}
	if out := c.Access(0x2000, false); out != MissMerged {
		t.Fatalf("second access to pending line = %v, want merged", out)
	}
	if c.PendingMisses() != 1 {
		t.Errorf("pending misses = %d, want 1", c.PendingMisses())
	}
	c.Fill(0x2000)
	if c.PendingMisses() != 0 {
		t.Errorf("pending misses after fill = %d, want 0", c.PendingMisses())
	}
}

func TestMSHRExhaustion(t *testing.T) {
	cfg := DefaultL1(64 << 10)
	cfg.MSHRs = 2
	c := mustCache(t, cfg)
	if c.Access(0x0000, false) != Miss {
		t.Fatal("expected miss")
	}
	if c.Access(0x1000, false) != Miss {
		t.Fatal("expected miss")
	}
	if out := c.Access(0x2000, false); out != ReservationFail {
		t.Fatalf("third outstanding miss = %v, want reservation fail", out)
	}
	if c.Stats().ResFails != 1 {
		t.Errorf("reservation failures = %d, want 1", c.Stats().ResFails)
	}
	c.Fill(0x0000)
	if out := c.Access(0x2000, false); out != Miss {
		t.Fatalf("after fill, access = %v, want miss", out)
	}
}

func TestLRUEviction(t *testing.T) {
	// Tiny direct-ish cache: 2 sets x 2 ways x 128B = 512B.
	cfg := Config{SizeBytes: 512, LineBytes: 128, Ways: 2, MSHRs: 8, HitLatency: 1}
	c := mustCache(t, cfg)
	// Three lines mapping to the same set (stride = 2 lines = 256B).
	a, b, d := uint64(0), uint64(512), uint64(1024)
	for _, addr := range []uint64{a, b} {
		if c.Access(addr, false) != Miss {
			t.Fatal("expected miss")
		}
		c.Fill(addr)
	}
	// Touch a so b becomes LRU.
	if c.Access(a, false) != Hit {
		t.Fatal("expected hit on a")
	}
	if c.Access(d, false) != Miss {
		t.Fatal("expected miss on d")
	}
	c.Fill(d)
	if !c.Contains(a) || !c.Contains(d) {
		t.Error("a and d should be resident")
	}
	if c.Contains(b) {
		t.Error("b should have been evicted as LRU")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestWriteAccessesCount(t *testing.T) {
	c := mustCache(t, DefaultL1(64<<10))
	if c.Access(0x100, true) != Miss {
		t.Fatal("expected write miss")
	}
	c.Fill(0x100)
	if c.Access(0x100, true) != Hit {
		t.Fatal("expected write hit")
	}
	if c.Stats().Accesses != 2 {
		t.Errorf("accesses = %d, want 2", c.Stats().Accesses)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Accesses: 10, Hits: 6, Misses: 4}
	b := Stats{Accesses: 5, Hits: 5}
	a.Add(b)
	if a.Accesses != 15 || a.Hits != 11 || a.Misses != 4 {
		t.Errorf("Add result %+v", a)
	}
	var zero Stats
	if zero.MissRatio() != 0 {
		t.Error("empty stats miss ratio should be 0")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{Hit, Miss, MissMerged, ReservationFail, Bypass} {
		if o.String() == "" {
			t.Errorf("outcome %d has empty name", o)
		}
	}
}

func TestSmallCacheThrashesLargeCacheHolds(t *testing.T) {
	// The same working set must show a lower miss ratio in a larger cache —
	// the mechanism behind the paper's Figure 2 L1D sweep.
	working := 256 // lines
	run := func(sizeBytes int) float64 {
		c := mustCache(t, DefaultL1(sizeBytes))
		for pass := 0; pass < 4; pass++ {
			for i := 0; i < working; i++ {
				addr := uint64(i * 128)
				if out := c.Access(addr, false); out == Miss || out == MissMerged {
					c.Fill(addr)
				}
			}
		}
		return c.Stats().MissRatio()
	}
	small := run(16 << 10) // 128 lines — cannot hold the working set
	large := run(64 << 10) // 512 lines — holds it easily
	if large >= small {
		t.Errorf("larger cache should miss less: small=%v large=%v", small, large)
	}
	if large > 0.3 {
		t.Errorf("64KB cache should mostly hit a 32KB working set, miss ratio %v", large)
	}
}

// Property: hits + misses + merged + failures == accesses.
func TestQuickAccessAccounting(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, err := New(DefaultL1(16 << 10))
		if err != nil {
			return false
		}
		for _, a := range addrs {
			out := c.Access(uint64(a)*64, false)
			if out == Miss {
				c.Fill(uint64(a) * 64)
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses+st.MergedMiss+st.ResFails == st.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: after Fill, the line is resident.
func TestQuickFillMakesResident(t *testing.T) {
	f := func(addr uint32) bool {
		c, err := New(DefaultL1(32 << 10))
		if err != nil {
			return false
		}
		a := uint64(addr)
		c.Access(a, false)
		c.Fill(a)
		return c.Contains(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// traffic drives a seeded mix of accesses and fills over a footprint a few
// times the cache's size, leaving some misses pending, and returns every
// outcome.  Fills complete the oldest pending miss, as a memory system would.
func traffic(c *Cache, seed int64, n int) []Outcome {
	rng := rand.New(rand.NewSource(seed))
	lines := uint64(4 * c.Config().SizeBytes / c.Config().LineBytes)
	var pending []uint64
	out := make([]Outcome, 0, n)
	for i := 0; i < n; i++ {
		if len(pending) > 0 && rng.Intn(3) == 0 {
			c.Fill(pending[0])
			pending = pending[1:]
			continue
		}
		addr := (rng.Uint64() % lines) * uint64(c.Config().LineBytes)
		o := c.Access(addr, rng.Intn(4) == 0)
		if o == Miss {
			pending = append(pending, addr)
		}
		out = append(out, o)
	}
	return out
}

func TestResetRestoresNewCache(t *testing.T) {
	// A small cache with few MSHRs, so the traffic before Reset produces
	// every outcome and leaves lines resident, LRU history and MSHRs pending.
	cfg := Config{SizeBytes: 4 << 10, LineBytes: 128, Ways: 4, MSHRs: 4, HitLatency: 1}
	used := mustCache(t, cfg)
	traffic(used, 1, 5000)
	st := used.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.MergedMiss == 0 || st.ResFails == 0 || st.Evictions == 0 {
		t.Fatalf("warm-up traffic too tame to test Reset: %+v", st)
	}
	if used.PendingMisses() == 0 {
		t.Fatal("warm-up should leave MSHRs pending")
	}

	used.Reset()
	if used.Stats() != (Stats{}) || used.PendingMisses() != 0 {
		t.Errorf("after Reset: stats %+v, %d pending misses", used.Stats(), used.PendingMisses())
	}
	fresh := mustCache(t, cfg)
	got, want := traffic(used, 2, 1500), traffic(fresh, 2, 1500)
	if len(got) < 1000 {
		t.Fatalf("only %d outcomes compared", len(got))
	}
	if !slices.Equal(got, want) {
		t.Error("a reset cache answered differently from a new one")
	}
	if used.Stats() != fresh.Stats() {
		t.Errorf("statistics differ after identical traffic:\n reset %+v\n new   %+v", used.Stats(), fresh.Stats())
	}
}
