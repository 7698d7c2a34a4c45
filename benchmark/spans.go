package main

import (
	"time"
)

// Tracing here is outside-in: no file of the program is instrumented.  A
// span is recorded around an exported call into one package; the level
// below is then called directly with the same inputs, in the same process,
// right after it, and recorded as the span's child.  A layer's self time is
// its span minus its children.  Because children are re-executions, their
// start/end lie after the parent's interval, not inside it; Parent is what
// links them.

// span is one recorded call.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	OpID    int    `json:"op_id"`
	Parent  int    `json:"parent"` // -1 for the outermost call of an op
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
	op    int // current op id
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// walk says how a chain's ops are walked: level by level in turns of turn ops.
type walk struct {
	firstOp int // op id of i = 0
	ops     int
	turn    int // ops one level runs before the next level takes the same ops
	warm    int // ops each level runs first, spans discarded
}

// levels records a chain.  fns are its levels, outermost first; fns[l](i)
// runs op i at level l and records its spans (a level finds its parents in
// what the level above stored for the same i).  Each level runs a turn of
// ops back to back before the next level runs the same ops, so that a level
// is measured in the steady state the untraced workload runs in (same code,
// same data, warm) and not behind the cache footprint of the other levels,
// while the levels of one op still run close together in time.
func (r *recorder) levels(p walk, fns ...func(i int)) {
	from := len(r.spans)
	for _, fn := range fns {
		for i := 0; i < p.warm && i < p.ops; i++ {
			fn(i)
		}
	}
	r.spans = r.spans[:from]
	for t0 := 0; t0 < p.ops; t0 += p.turn {
		for _, fn := range fns {
			for i := t0; i < t0+p.turn && i < p.ops; i++ {
				r.op = p.firstOp + i
				fn(i)
			}
		}
	}
	r.op = p.firstOp + p.ops
}

// call records fn as a span of the current op and returns its id.
func (r *recorder) call(name, layer string, parent int, fn func()) int {
	id := len(r.spans)
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	r.spans = append(r.spans, span{ID: id, Name: name, Layer: layer, OpID: r.op, Parent: parent,
		StartNS: int64(start), EndNS: int64(end)})
	return id
}

// selfSeconds returns each span's self time: its duration minus the
// durations of the spans that name it as parent.
func selfSeconds(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

// perOp sums value(span) over the spans of each op that match, returning one
// total per op in op order.
func perOp(spans []span, match func(span) bool, value func(i int) float64) []float64 {
	var out []float64
	idx := map[int]int{}
	for i, s := range spans {
		if !match(s) {
			continue
		}
		k, ok := idx[s.OpID]
		if !ok {
			k = len(out)
			idx[s.OpID] = k
			out = append(out, 0)
		}
		out[k] += value(i)
	}
	return out
}

// timed returns the median seconds of reps runs of fn.  fn should last at
// least a few milliseconds; loop inside it for anything shorter.
func timed(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = time.Since(t0).Seconds()
	}
	return median(xs)
}
