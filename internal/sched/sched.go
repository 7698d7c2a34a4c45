// Package sched implements the warp schedulers the paper sweeps in its
// scheduler-sensitivity experiments (Figures 15 and 16): GTO
// (greedy-then-oldest), LRR (loose round-robin) and TLV (two-level).
package sched

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Bitset is a set of warp indices, one bit per position in Warps.IDs.  It
// spans as many words as the SM has warps, so nothing bounds residency at 64.
type Bitset []uint64

// Has reports whether index i is in the set.
func (b Bitset) Has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set adds index i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes index i.
func (b Bitset) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Or adds every index of other, a set of the same size.
func (b Bitset) Or(other Bitset) {
	for i, w := range other {
		b[i] |= w
	}
}

// AndNot removes every index of other, a set of the same size.
func (b Bitset) AndNot(other Bitset) {
	for i, w := range other {
		b[i] &^= w
	}
}

// Count returns the number of indices in the set.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the lowest index in the set that is at least i, or -1.
func (b Bitset) Next(i int) int {
	wi := i >> 6
	if wi >= len(b) {
		return -1
	}
	if w := b[wi] &^ (1<<(uint(i)&63) - 1); w != 0 {
		return wi<<6 + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b); wi++ {
		if b[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(b[wi])
		}
	}
	return -1
}

// Warps is one SM's resident warps as a scheduler sees them at the current
// cycle.  IDs holds the warps' stable identifiers in launch order, so they
// are strictly increasing and index order is both ID order and age order.
// The sets are keyed by index into IDs and hold no index beyond it.
type Warps struct {
	IDs []int
	// Ready holds the warps whose next instruction can issue this cycle.
	Ready Bitset
	// WaitingOnMemory holds the warps blocked on an outstanding memory
	// access (the two-level scheduler demotes them from its active set).
	WaitingOnMemory Bitset
}

// Scheduler selects which ready warp issues next.
type Scheduler interface {
	// Name returns the scheduler's short name ("gto", "lrr", "tlv").
	Name() string
	// Pick returns the index into w.IDs of the warp to issue, or -1 if no
	// warp is ready.
	Pick(w *Warps) int
	// Reset returns the scheduler to its freshly constructed state, so one
	// instance can serve consecutive kernels.
	Reset()
}

// Kind names a scheduler implementation.
type Kind string

// Scheduler kinds, matching the GPGPU-Sim options the paper uses.
const (
	GTO Kind = "gto"
	LRR Kind = "lrr"
	TLV Kind = "tlv"
)

// Kinds returns all scheduler kinds in the paper's order.
func Kinds() []Kind { return []Kind{GTO, LRR, TLV} }

// New constructs a scheduler of the given kind.
func New(kind Kind) (Scheduler, error) {
	switch Kind(strings.ToLower(string(kind))) {
	case GTO:
		return &gtoScheduler{lastWarp: -1}, nil
	case LRR:
		return &lrrScheduler{}, nil
	case TLV:
		return &tlvScheduler{activeLimit: 8}, nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler kind %q (want gto, lrr or tlv)", kind)
	}
}

// locate returns the index of id in ids and whether it is there, as
// slices.BinarySearch does, looking first where the caller last found it: a
// warp's index changes only when the simulator compacts retired warps out
// from before it.
func locate(ids []int, hint, id int) (int, bool) {
	if hint < len(ids) && ids[hint] == id {
		return hint, true
	}
	return slices.BinarySearch(ids, id)
}

// gtoScheduler keeps issuing from the most recently issued warp until it
// stalls, then falls back to the oldest ready warp.
type gtoScheduler struct {
	lastWarp int
	lastIdx  int // where lastWarp was last found
}

func (g *gtoScheduler) Name() string { return string(GTO) }

func (g *gtoScheduler) Reset() { *g = gtoScheduler{lastWarp: -1} }

func (g *gtoScheduler) Pick(w *Warps) int {
	// Greedy: continue with the last issued warp if it is still ready.
	if g.lastWarp >= 0 {
		if i, ok := locate(w.IDs, g.lastIdx, g.lastWarp); ok {
			g.lastIdx = i
			if w.Ready.Has(i) {
				return i
			}
		}
	}
	// Oldest ready warp: the lowest index, since IDs are in launch order.
	best := w.Ready.Next(0)
	if best >= 0 {
		g.lastWarp, g.lastIdx = w.IDs[best], best
	}
	return best
}

// lrrScheduler rotates through warps in ID order, starting after the last
// issued warp.
type lrrScheduler struct {
	lastID  int
	lastIdx int // where lastID was last found
	seeded  bool
}

func (l *lrrScheduler) Name() string { return string(LRR) }

func (l *lrrScheduler) Reset() { *l = lrrScheduler{} }

func (l *lrrScheduler) Pick(w *Warps) int {
	start := 0
	if l.seeded {
		// The first warp with an ID greater than the last issued one.
		var found bool
		if start, found = locate(w.IDs, l.lastIdx, l.lastID); found {
			start++
		}
	}
	i := w.Ready.Next(start)
	if i < 0 {
		i = w.Ready.Next(0)
	}
	if i >= 0 {
		l.lastID, l.lastIdx = w.IDs[i], i
		l.seeded = true
	}
	return i
}

// tlvScheduler is a two-level scheduler: only a bounded active set of warps
// is considered each cycle (round-robin within it); warps that block on
// memory are demoted to the pending set and replaced by pending warps.
type tlvScheduler struct {
	activeLimit int
	active      []int // warp IDs
	pos         []int // index of each active warp in the view it was last looked up in
	rrPointer   int
}

func (t *tlvScheduler) Name() string { return string(TLV) }

func (t *tlvScheduler) Reset() { t.active, t.pos, t.rrPointer = t.active[:0], t.pos[:0], 0 }

func (t *tlvScheduler) Pick(w *Warps) int {
	if len(w.IDs) == 0 {
		return -1
	}

	// Drop departed or memory-blocked warps from the active set.
	n := 0
	for k, id := range t.active {
		if i, ok := locate(w.IDs, t.pos[k], id); ok && !w.WaitingOnMemory.Has(i) {
			t.active[n], t.pos[n] = id, i
			n++
		}
	}
	t.active, t.pos = t.active[:n], t.pos[:n]

	// Refill the active set with non-blocked warps not already active,
	// oldest first.
	for i := 0; i < len(w.IDs) && len(t.active) < t.activeLimit; i++ {
		if !w.WaitingOnMemory.Has(i) && !slices.Contains(t.active, w.IDs[i]) {
			t.active, t.pos = append(t.active, w.IDs[i]), append(t.pos, i)
		}
	}
	if len(t.active) == 0 {
		return -1
	}

	// Round-robin within the active set.
	for off := 0; off < len(t.active); off++ {
		slot := (t.rrPointer + off) % len(t.active)
		if w.Ready.Has(t.pos[slot]) {
			t.rrPointer = (slot + 1) % len(t.active)
			return t.pos[slot]
		}
	}
	return -1
}
