package gpusim

import (
	"math/rand"
	"testing"
)

// drainThrough discards every event at or before cycle now: how the cycle
// loop kept its pending events current when they lived on an eventHeap, and
// so what an eventSet is held to below.
func (h *eventHeap) drainThrough(now int64) {
	for len(h.t) > 0 && h.t[0] <= now {
		h.pop()
	}
}

func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	in := []int64{42, 7, 19, 7, 100, 3, 55, 3, 3, 88, 1, 64}
	for _, v := range in {
		h.push(v)
	}
	if h.len() != len(in) {
		t.Fatalf("len = %d, want %d", h.len(), len(in))
	}
	prev := int64(-1)
	for h.len() > 0 {
		if top := h.peek(); top < prev {
			t.Fatalf("peek %d after %d: heap out of order", top, prev)
		}
		v := h.pop()
		if v < prev {
			t.Fatalf("pop %d after %d: heap out of order", v, prev)
		}
		prev = v
	}
}

func TestEventHeapDrainThrough(t *testing.T) {
	var h eventHeap
	for _, v := range []int64{5, 1, 9, 3, 7, 3} {
		h.push(v)
	}
	h.drainThrough(3)
	if h.len() != 3 {
		t.Fatalf("after drainThrough(3): len = %d, want 3 (5, 7, 9)", h.len())
	}
	if h.peek() != 5 {
		t.Fatalf("after drainThrough(3): peek = %d, want 5", h.peek())
	}
	h.drainThrough(100)
	if h.len() != 0 {
		t.Fatalf("drainThrough past all events should empty the heap, len = %d", h.len())
	}
	// Draining an empty heap is a no-op.
	h.drainThrough(100)
	if h.len() != 0 {
		t.Fatal("draining an empty heap should be safe")
	}
}

// eventAhead holds the distances from the current cycle the event-set tests
// push at and advance by: the past and the present (never pending), the next
// cycle (the port release of every issue), the latencies the model uses, the
// word boundaries of the ring, and the window's edge from either side.
var eventAhead = []int64{-3, 0, 1, 2, 20, 24, 63, 64, 65, 700,
	calendarWindow - 1, calendarWindow, calendarWindow + 1, 2*calendarWindow + 5}

// Operations of checkEventSet, three bytes each: the kind in the first byte's
// high nibble (below evAdvance a push), an index into eventAhead in its low
// one or, past the table's end, the distance itself in the other two bytes.
const (
	evPush    = 0x00
	evAdvance = 0xa0
	evReset   = 0xf0
)

// checkEventSet applies the operations in data to an eventSet and to the
// eventHeap the cycle loop used to keep its events on, and requires after
// each that both report the same next pending cycle, or both none.
func checkEventSet(t *testing.T, data []byte) {
	t.Helper()
	var set eventSet
	var heap eventHeap
	now := int64(0)
	for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
		d := int64(data[1]) | int64(data[2])<<8
		if i := int(data[0] & 15); i < len(eventAhead) {
			d = eventAhead[i]
		}
		switch op := data[0] & 0xf0; {
		case op < evAdvance:
			set.push(now + d)
			heap.push(now + d)
		case op < evReset:
			now += max(d, 0)
			set.drainThrough(now)
		default:
			now = 0
			set.reset()
			heap.reset()
		}
		heap.drainThrough(now)
		got, ok := set.next()
		switch {
		case ok != (heap.len() > 0):
			t.Fatalf("step %d (op %#x, cycle %d): set pending = %v, heap holds %d", step, data[0], now, ok, heap.len())
		case ok && got != heap.peek():
			t.Fatalf("step %d (op %#x, cycle %d): next = %d, heap says %d", step, data[0], now, got, heap.peek())
		}
	}
}

// eventSetCases are operation sequences around the window's edge, each also a
// seed of FuzzEventSet.  The low nibble indexes eventAhead.
var eventSetCases = map[string][]byte{
	"duplicates and the next cycle": {evPush | 2, 0, 0, evPush | 2, 0, 0, evPush | 4, 0, 0, evPush | 4, 0, 0,
		evAdvance | 2, 0, 0, evAdvance | 4, 0, 0, evAdvance | 2, 0, 0},
	"past and present are never pending": {evAdvance | 9, 0, 0, evPush | 0, 0, 0, evPush | 1, 0, 0, evAdvance | 2, 0, 0},
	"window edge migrates in": {evPush | 10, 0, 0, evPush | 11, 0, 0, evPush | 12, 0, 0, evAdvance | 2, 0, 0,
		evAdvance | 2, 0, 0, evAdvance | 10, 0, 0, evAdvance | 2, 0, 0, evAdvance | 2, 0, 0},
	"landing exactly on a far event": {evPush | 12, 0, 0, evAdvance | 12, 0, 0, evPush | 11, 0, 0, evAdvance | 11, 0, 0},
	"jump over the window, far event survives": {evPush | 5, 0, 0, evPush | 15, 0x00, 0x30, evAdvance | 13, 0, 0,
		evAdvance | 2, 0, 0, evAdvance | 10, 0, 0},
	"jump over everything": {evPush | 5, 0, 0, evPush | 11, 0, 0, evPush | 13, 0, 0, evAdvance | 15, 0xff, 0xff},
	"reset between kernels": {evAdvance | 9, 0, 0, evPush | 5, 0, 0, evPush | 13, 0, 0, evReset, 0, 0,
		evPush | 3, 0, 0, evAdvance | 2, 0, 0, evAdvance | 2, 0, 0},
	"ring wraps": {evAdvance | 10, 0, 0, evPush | 4, 0, 0, evPush | 9, 0, 0, evAdvance | 5, 0, 0, evAdvance | 9, 0, 0},
}

func TestEventSetMatchesHeap(t *testing.T) {
	for name, ops := range eventSetCases {
		t.Run(name, func(t *testing.T) { checkEventSet(t, ops) })
	}
	// A long seeded interleaving shaped like the cycle loop's: mostly pushes,
	// most advances by one cycle, a reset once in a long while.
	rng := rand.New(rand.NewSource(26))
	ops := make([]byte, 3*200_000)
	rng.Read(ops)
	for i := 0; i < len(ops); i += 3 {
		switch op := ops[i] & 0xf0; {
		case op == evReset && rng.Intn(50) != 0:
			ops[i] &^= 0x80
		case op >= evAdvance && op < evReset && rng.Intn(4) != 0:
			ops[i] = evAdvance | 2
		}
	}
	checkEventSet(t, ops)
}

func FuzzEventSet(f *testing.F) {
	for _, ops := range eventSetCases {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { checkEventSet(t, ops) })
}
