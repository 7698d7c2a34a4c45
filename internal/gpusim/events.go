package gpusim

import "tango/internal/sched"

// calendarWindow is how many cycles ahead of the current one an eventSet
// files in its ring; it must be a power of two.  Functional-unit, cache and
// DRAM latencies are tens to hundreds of cycles, so nearly every event is.
const calendarWindow = 4096

// eventSet is the set of future cycles at which something on one SM changes:
// a register write-back, a cache fill, a pipeline port or barrier release, an
// instruction fetch.  The cycle loop writes it on every issue — mostly with
// cycles already pending, or with the very next cycle — and reads it only in
// a cycle where nothing issued, to find where to fast-forward to.  So the
// cycles within calendarWindow of now are one bit each, at cycle mod
// calendarWindow in ring, where a push is an OR; the few beyond wait, exact,
// in far and move into the ring as now approaches them.  Cycles at or before
// now can never be fast-forwarded to and are dropped.  Nothing else is: an
// event whose cause has since gone (the write-back of a warp that retired)
// still ends a fast-forward, because the pinned statistics say it does.
type eventSet struct {
	now  int64 // every pending cycle is later
	ring [calendarWindow / 64]uint64
	far  eventHeap
}

// reset discards every pending event and returns to cycle zero.
func (s *eventSet) reset() {
	s.now = 0
	clear(s.ring[:])
	s.far.reset()
}

// push adds cycle c to the set.
func (s *eventSet) push(c int64) {
	switch d := c - s.now; {
	case d >= calendarWindow:
		s.far.push(c)
	case d > 0:
		s.ring[c&(calendarWindow-1)>>6] |= 1 << (uint(c) & 63)
	}
}

// drainThrough advances to cycle now, which never decreases, discarding every
// event at or before it.
func (s *eventSet) drainThrough(now int64) {
	if now-s.now >= calendarWindow {
		clear(s.ring[:])
	} else {
		for c := s.now + 1; c <= now; {
			bit := uint(c) & 63
			n := min(int64(64-bit), now-c+1)
			s.ring[c&(calendarWindow-1)>>6] &^= (1<<uint(n) - 1) << bit
			c += n
		}
	}
	s.now = now
	for s.far.len() > 0 && s.far.peek()-now < calendarWindow {
		s.push(s.far.pop())
	}
}

// next returns the earliest pending cycle, or false if there is none.
func (s *eventSet) next() (int64, bool) {
	ring, start := sched.Bitset(s.ring[:]), int(s.now+1)&(calendarWindow-1)
	i := ring.Next(start)
	if i < 0 {
		i = ring.Next(0) // the window wraps: cycles past the ring's end
	}
	if i >= 0 {
		return s.now + 1 + int64((i-start)&(calendarWindow-1)), true
	}
	if s.far.len() > 0 {
		return s.far.peek(), true
	}
	return 0, false
}

// eventHeap is a min-heap of cycles (an eventSet's overflow) or of keys that
// start with one (an SM's warp wake-ups).  It is hand-rolled over a plain
// []int64 (rather than container/heap) so pushes do not box values into
// interfaces and the simulator's cycle loop stays allocation-free in steady
// state.
type eventHeap struct {
	t []int64
}

// reset discards every pending event, keeping the storage.
func (h *eventHeap) reset() { h.t = h.t[:0] }

// push schedules a wake-up at cycle c.
func (h *eventHeap) push(c int64) {
	h.t = append(h.t, c)
	// Sift up.
	i := len(h.t) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.t[parent] <= h.t[i] {
			break
		}
		h.t[parent], h.t[i] = h.t[i], h.t[parent]
		i = parent
	}
}

// pop removes and returns the earliest pending cycle.  It must not be called
// on an empty heap.
func (h *eventHeap) pop() int64 {
	top := h.t[0]
	last := len(h.t) - 1
	h.t[0] = h.t[last]
	h.t = h.t[:last]
	// Sift down.
	i := 0
	for {
		left := 2*i + 1
		if left >= last {
			break
		}
		min := left
		if right := left + 1; right < last && h.t[right] < h.t[left] {
			min = right
		}
		if h.t[i] <= h.t[min] {
			break
		}
		h.t[i], h.t[min] = h.t[min], h.t[i]
		i = min
	}
	return top
}

// peek returns the earliest pending cycle without removing it.  It must not
// be called on an empty heap.
func (h *eventHeap) peek() int64 { return h.t[0] }

// len returns the number of pending events.
func (h *eventHeap) len() int { return len(h.t) }
