package gpusim

// eventHeap is a min-heap of pending wake-up cycles for one SM.  Every time a
// future event is scheduled (a register write-back, a cache fill, a pipeline
// port or barrier release, an instruction fetch), its cycle is pushed; the
// fast-forward path peeks the earliest pending cycle instead of rescanning
// all fills, warps and functional units.  Entries are drained lazily: times
// that have already passed are popped in bulk at the start of each cycle, so
// the heap only ever holds future events.
//
// The heap is hand-rolled over a plain []int64 (rather than container/heap)
// so pushes do not box values into interfaces and the simulator's cycle loop
// stays allocation-free in steady state.
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

// drainThrough discards every event at or before cycle now.
func (h *eventHeap) drainThrough(now int64) {
	for len(h.t) > 0 && h.t[0] <= now {
		h.pop()
	}
}
