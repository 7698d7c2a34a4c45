package sched

import (
	"math/rand"
	"slices"
	"testing"
)

func TestNewKinds(t *testing.T) {
	for _, kind := range Kinds() {
		s, err := New(kind)
		if err != nil {
			t.Fatalf("New(%s): %v", kind, err)
		}
		if s.Name() != string(kind) {
			t.Errorf("Name() = %q, want %q", s.Name(), kind)
		}
	}
	if _, err := New("fifo"); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := New("GTO"); err != nil {
		t.Errorf("kind lookup should be case-insensitive: %v", err)
	}
	if len(Kinds()) != 3 {
		t.Errorf("expected 3 scheduler kinds, got %d", len(Kinds()))
	}
}

// newBitset returns an empty set with room for n indices.
func newBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// warps returns a view of len(ready) warps with IDs 0, 1, 2, ... and the
// given readiness; none waits on memory.
func warps(ready ...bool) *Warps {
	w := &Warps{
		IDs:             make([]int, len(ready)),
		Ready:           newBitset(len(ready)),
		WaitingOnMemory: newBitset(len(ready)),
	}
	for i, r := range ready {
		w.IDs[i] = i
		if r {
			w.Ready.Set(i)
		}
	}
	return w
}

// allReady returns a view of n ready warps.
func allReady(n int) *Warps {
	ready := make([]bool, n)
	for i := range ready {
		ready[i] = true
	}
	return warps(ready...)
}

func TestBitset(t *testing.T) {
	b := newBitset(130)
	if len(b) != 3 {
		t.Fatalf("130 indices need 3 words, got %d", len(b))
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	if !b.Has(63) || !b.Has(64) || b.Has(65) || b.Count() != 4 {
		t.Errorf("membership wrong: %v", b)
	}
	for _, tc := range []struct{ from, want int }{
		{0, 0}, {1, 63}, {63, 63}, {64, 64}, {65, 129}, {129, 129}, {130, -1}, {192, -1}, {1000, -1},
	} {
		if got := b.Next(tc.from); got != tc.want {
			t.Errorf("Next(%d) = %d, want %d", tc.from, got, tc.want)
		}
	}
	b.Clear(63)
	other := newBitset(130)
	other.Set(64)
	other.Set(100)
	b.AndNot(other)
	if b.Has(63) || b.Has(64) || b.Count() != 2 {
		t.Errorf("after Clear/AndNot: %v", b)
	}
	b.Or(other)
	if !b.Has(64) || !b.Has(100) || b.Count() != 4 {
		t.Errorf("after Or: %v", b)
	}
	if newBitset(0).Next(0) != -1 {
		t.Error("empty set has no members")
	}
}

func TestAllSchedulersPickOnlyReady(t *testing.T) {
	for _, kind := range Kinds() {
		s, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		// Nothing ready.
		if got := s.Pick(warps(false, false, false)); got != -1 {
			t.Errorf("%s: Pick with nothing ready = %d, want -1", kind, got)
		}
		// Only warp 2 ready.
		if got := s.Pick(warps(false, false, true)); got != 2 {
			t.Errorf("%s: Pick = %d, want 2", kind, got)
		}
		// No warps at all.
		if got := s.Pick(warps()); got != -1 {
			t.Errorf("%s: Pick of an empty SM = %d, want -1", kind, got)
		}
	}
}

func TestGTOGreedyThenOldest(t *testing.T) {
	s, err := New(GTO)
	if err != nil {
		t.Fatal(err)
	}
	// First pick: the oldest ready warp, which is the first ready one.
	w := warps(false, true, true, true)
	if got := s.Pick(w); got != 1 {
		t.Fatalf("GTO first pick = %d, want oldest ready (index 1)", got)
	}
	// Greedy: warp 1 stays ready, so GTO sticks with it even once an older
	// warp becomes ready.
	w.Ready.Set(0)
	if got := s.Pick(w); got != 1 {
		t.Errorf("GTO should stay greedy on warp 1, picked %d", got)
	}
	// Warp 1 stalls; GTO falls back to the oldest ready warp (0).
	w.Ready.Clear(1)
	if got := s.Pick(w); got != 0 {
		t.Errorf("GTO fallback = %d, want 0", got)
	}
	// Warps 0 and 1 depart: the survivors shift down, and the greedy warp is
	// found by ID, not by position.
	w = &Warps{IDs: []int{2, 3}, Ready: newBitset(2), WaitingOnMemory: newBitset(2)}
	w.Ready.Set(1)
	if got := s.Pick(w); got != 1 {
		t.Errorf("GTO after departures = %d, want 1 (warp 3)", got)
	}
	w.Ready.Set(0)
	if got := s.Pick(w); got != 1 {
		t.Errorf("GTO should stay greedy on warp 3, picked %d", got)
	}
	s.Reset()
	if got := s.Pick(w); got != 0 {
		t.Errorf("after reset GTO should pick oldest ready, got %d", got)
	}
}

func TestLRRRotates(t *testing.T) {
	s, err := New(LRR)
	if err != nil {
		t.Fatal(err)
	}
	w := allReady(3)
	order := []int{}
	for i := 0; i < 6; i++ {
		order = append(order, s.Pick(w))
	}
	if want := []int{0, 1, 2, 0, 1, 2}; !slices.Equal(order, want) {
		t.Fatalf("LRR issue order %v, want %v", order, want)
	}
	// Skips non-ready warps: after warp 2, warp 0 is next and warp 1 stalled.
	w.Ready.Clear(1)
	if got := s.Pick(w); got != 0 {
		t.Fatalf("LRR pick = %d, want 0", got)
	}
	if got := s.Pick(w); got != 2 {
		t.Fatalf("LRR pick = %d, want 2 (skipping stalled warp 1)", got)
	}
}

func TestLRRSkipsStalled(t *testing.T) {
	s, err := New(LRR)
	if err != nil {
		t.Fatal(err)
	}
	w := warps(true, false, true)
	first := s.Pick(w)
	second := s.Pick(w)
	if first != 0 || second != 2 {
		t.Errorf("LRR should rotate over ready warps 0 and 2, got %d then %d", first, second)
	}
}

func TestTLVBoundsActiveSet(t *testing.T) {
	s, err := New(TLV)
	if err != nil {
		t.Fatal(err)
	}
	// 16 ready warps: the two-level scheduler only rotates within its active
	// set of 8, so warps 8..15 never issue while 0..7 stay ready.
	w := allReady(16)
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		got := s.Pick(w)
		if got < 0 {
			t.Fatal("TLV should always find a ready warp")
		}
		seen[w.IDs[got]] = true
	}
	if len(seen) != 8 {
		t.Errorf("TLV issued from %d distinct warps, want 8 (active set)", len(seen))
	}
	for id := 8; id < 16; id++ {
		if seen[id] {
			t.Errorf("warp %d issued despite being outside the active set", id)
		}
	}
}

func TestTLVDemotesMemoryBlockedWarps(t *testing.T) {
	s, err := New(TLV)
	if err != nil {
		t.Fatal(err)
	}
	w := allReady(10)
	// Fill the active set with warps 0..7.
	for i := 0; i < 8; i++ {
		s.Pick(w)
	}
	// Warps 0..3 block on memory: they leave the active set and 8, 9 join.
	for i := 0; i < 4; i++ {
		w.Ready.Clear(i)
		w.WaitingOnMemory.Set(i)
	}
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		if got := s.Pick(w); got >= 0 {
			seen[w.IDs[got]] = true
		}
	}
	if !seen[8] || !seen[9] {
		t.Errorf("pending warps should be promoted into the active set, saw %v", seen)
	}
	for id := 0; id < 4; id++ {
		if seen[id] {
			t.Errorf("memory-blocked warp %d should not issue", id)
		}
	}
}

func TestTLVAllBlocked(t *testing.T) {
	s, err := New(TLV)
	if err != nil {
		t.Fatal(err)
	}
	w := warps(false, false)
	w.WaitingOnMemory.Set(0)
	w.WaitingOnMemory.Set(1)
	if got := s.Pick(w); got != -1 {
		t.Errorf("all-blocked pick = %d, want -1", got)
	}
}

// The slice-scanning schedulers the bitset ones replaced, kept verbatim as
// the reference the differential test below holds them to.  candidate.Age
// is what the view no longer carries: the simulator launches warps in ID
// order, so the oldest ready warp is the first.

type candidate struct {
	ID              int
	Ready           bool
	Age             int64
	WaitingOnMemory bool
}

type refScheduler interface {
	Pick(candidates []candidate) int
}

type refGTO struct{ lastWarp int }

func (g *refGTO) Pick(candidates []candidate) int {
	if g.lastWarp >= 0 {
		if i := refFind(candidates, g.lastWarp); i >= 0 && candidates[i].Ready {
			return i
		}
	}
	best := -1
	for i, c := range candidates {
		if !c.Ready {
			continue
		}
		if best == -1 || c.Age < candidates[best].Age ||
			(c.Age == candidates[best].Age && c.ID < candidates[best].ID) {
			best = i
		}
	}
	if best >= 0 {
		g.lastWarp = candidates[best].ID
	}
	return best
}

type refLRR struct {
	lastID int
	seeded bool
}

func (l *refLRR) Pick(candidates []candidate) int {
	if len(candidates) == 0 {
		return -1
	}
	start := 0
	if l.seeded {
		for i, c := range candidates {
			if c.ID > l.lastID {
				start = i
				break
			}
		}
	}
	for off := 0; off < len(candidates); off++ {
		i := (start + off) % len(candidates)
		if candidates[i].Ready {
			l.lastID = candidates[i].ID
			l.seeded = true
			return i
		}
	}
	return -1
}

type refTLV struct {
	activeLimit int
	active      []int
	rrPointer   int
}

func refFind(candidates []candidate, id int) int {
	lo, hi := 0, len(candidates)
	for lo < hi {
		mid := (lo + hi) / 2
		if candidates[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(candidates) && candidates[lo].ID == id {
		return lo
	}
	return -1
}

func (t *refTLV) Pick(candidates []candidate) int {
	if len(candidates) == 0 {
		return -1
	}
	kept := t.active[:0]
	for _, id := range t.active {
		i := refFind(candidates, id)
		if i < 0 || candidates[i].WaitingOnMemory {
			continue
		}
		kept = append(kept, id)
	}
	t.active = kept
	for _, c := range candidates {
		if len(t.active) >= t.activeLimit {
			break
		}
		if c.WaitingOnMemory {
			continue
		}
		already := false
		for _, id := range t.active {
			if id == c.ID {
				already = true
				break
			}
		}
		if !already {
			t.active = append(t.active, c.ID)
		}
	}
	if len(t.active) == 0 {
		return -1
	}
	for off := 0; off < len(t.active); off++ {
		slot := (t.rrPointer + off) % len(t.active)
		i := refFind(candidates, t.active[slot])
		if i >= 0 && candidates[i].Ready {
			t.rrPointer = (slot + 1) % len(t.active)
			return i
		}
	}
	return -1
}

// TestSchedulersMatchReference drives each scheduler and its reference
// through the same seeded history of an SM — warps arriving in ID order,
// departing from anywhere, random readiness each cycle, two issue slots with
// the picked warp withdrawn as the simulator withdraws it — and requires the
// same pick at every slot and the same internal state after every cycle.
// Pools grow past 64 and 128 warps, so every bitset word boundary is crossed.
func TestSchedulersMatchReference(t *testing.T) {
	const steps = 10_000
	const maxPool = 140
	for _, kind := range Kinds() {
		s, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		var ref refScheduler
		var sameState func() bool
		var resetRef func()
		switch got := s.(type) {
		case *gtoScheduler:
			r := &refGTO{lastWarp: -1}
			ref, sameState = r, func() bool { return got.lastWarp == r.lastWarp }
			resetRef = func() { *r = refGTO{lastWarp: -1} }
		case *lrrScheduler:
			r := &refLRR{}
			ref, sameState = r, func() bool { return got.lastID == r.lastID && got.seeded == r.seeded }
			resetRef = func() { *r = refLRR{} }
		case *tlvScheduler:
			r := &refTLV{activeLimit: got.activeLimit}
			ref, sameState = r, func() bool {
				return slices.Equal(got.active, r.active) && got.rrPointer == r.rrPointer
			}
			resetRef = func() { *r = refTLV{activeLimit: got.activeLimit} }
		}

		rng := rand.New(rand.NewSource(18))
		var pool []candidate // ID, Age
		nextID, target := 0, 0
		var sizes [3]int // steps with a pool of 1, 2 and 3 words
		for step := 0; step < steps; step++ {
			// Now and then the kernel ends: the scheduler is reset and the
			// next kernel's warps count from zero again, so a position or an
			// ID remembered across the reset would name a different warp.
			if step%1000 == 999 {
				s.Reset()
				resetRef()
				pool, nextID = nil, 0
			}
			// The pool drifts towards a size that changes every so often:
			// departures from the front, middle or back, arrivals in ID and
			// age order, and some churn in both directions regardless.
			if step%64 == 0 {
				target = 1 + rng.Intn(maxPool)
			}
			for n := rng.Intn(2) + min(8, max(0, len(pool)-target)); n > 0 && len(pool) > 1; n-- {
				i := [3]int{0, rng.Intn(len(pool)), len(pool) - 1}[rng.Intn(3)]
				pool = slices.Delete(pool, i, i+1)
			}
			for n := rng.Intn(2) + min(8, max(0, target-len(pool))); (n > 0 || len(pool) == 0) && len(pool) < maxPool; n-- {
				nextID += 1 + rng.Intn(3)*rng.Intn(2)
				pool = append(pool, candidate{ID: nextID, Age: int64(step)})
			}
			sizes[(len(pool)-1)/64]++

			// This cycle's masks, at a density that changes from cycle to cycle.
			view := &Warps{
				IDs:             make([]int, len(pool)),
				Ready:           newBitset(len(pool)),
				WaitingOnMemory: newBitset(len(pool)),
			}
			readyPct, waitPct := rng.Intn(101), rng.Intn(101)
			for i := range pool {
				view.IDs[i] = pool[i].ID
				pool[i].Ready = rng.Intn(100) < readyPct
				pool[i].WaitingOnMemory = rng.Intn(100) < waitPct
				if pool[i].Ready {
					view.Ready.Set(i)
				}
				if pool[i].WaitingOnMemory {
					view.WaitingOnMemory.Set(i)
				}
			}

			for slot := 0; slot < 2; slot++ {
				got, want := s.Pick(view), ref.Pick(pool)
				if got != want {
					t.Fatalf("%s: step %d slot %d: picked %d, reference picked %d (%d warps)",
						kind, step, slot, got, want, len(pool))
				}
				if got < 0 {
					break
				}
				view.Ready.Clear(got)
				view.WaitingOnMemory.Set(got)
				pool[got].Ready, pool[got].WaitingOnMemory = false, true
			}
			if !sameState() {
				t.Fatalf("%s: step %d: internal state diverged from the reference: %+v", kind, step, s)
			}
		}
		for words, n := range sizes {
			if n < steps/50 {
				t.Errorf("%s: only %d steps ran with a %d-word pool", kind, n, words+1)
			}
		}
	}
}
