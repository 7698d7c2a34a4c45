package gpusim

import (
	"tango/internal/isa"
	"tango/internal/kernel"
)

// sampledLoop is a program loop with its (possibly reduced) simulated trip
// count.
type sampledLoop struct {
	body     []isa.Instruction
	simTrip  int
	fullTrip int
}

// flatProgram is the per-thread program with sampling applied.
type flatProgram struct {
	prologue []isa.Instruction
	loops    []sampledLoop
	epilogue []isa.Instruction
}

// newFlatProgram applies the sampling bounds to a kernel program.
func newFlatProgram(p kernel.Program, s Sampling) flatProgram {
	fp := flatProgram{prologue: p.Prologue, epilogue: p.Epilogue}
	for _, l := range p.Loops {
		trip := l.Trip
		if s.MaxLoopIters > 0 && trip > s.MaxLoopIters {
			trip = s.MaxLoopIters
		}
		fp.loops = append(fp.loops, sampledLoop{body: l.Body, simTrip: trip, fullTrip: l.Trip})
	}
	return fp
}

// segment indices: 0 = prologue, 1..len(loops) = loops, len(loops)+1 = epilogue.
func (fp flatProgram) numSegments() int { return len(fp.loops) + 2 }

// segmentInstrs returns the instruction slice of a segment.
func (fp flatProgram) segmentInstrs(seg int) []isa.Instruction {
	switch {
	case seg == 0:
		return fp.prologue
	case seg <= len(fp.loops):
		return fp.loops[seg-1].body
	default:
		return fp.epilogue
	}
}

// segmentTrips returns the number of iterations of a segment.
func (fp flatProgram) segmentTrips(seg int) int {
	if seg >= 1 && seg <= len(fp.loops) {
		return fp.loops[seg-1].simTrip
	}
	return 1
}

// warp is the execution state of one 32-thread warp.
type warp struct {
	id     int
	ctaID  int
	lanes  int
	launch int64

	prog *flatProgram
	seg  int
	pc   int
	iter int
	done bool

	// Scoreboard: per-register readiness and the producer kind used for stall
	// attribution.
	regReady     []int64
	regFromMem   []bool
	regFromConst []bool

	// syncUntil blocks the warp at a barrier until the given cycle.
	syncUntil int64
	// fetchReady models the instruction-fetch delay at segment boundaries.
	fetchReady int64

	// blockedUntil and blockedReason memoize the last classification: while
	// a warp is blocked on a time-bounded condition (sync, fetch, register
	// dependency, busy pipe) none of its inputs can change before that cycle,
	// so re-classification is skipped until it expires.  Zero means the warp
	// must be (re-)classified.
	blockedUntil  int64
	blockedReason StallReason
}

// newWarp creates a warp positioned at the start of the program.
func newWarp(id, ctaID, lanes, regs int, prog *flatProgram, now int64) *warp {
	w := &warp{
		id:           id,
		ctaID:        ctaID,
		lanes:        lanes,
		launch:       now,
		prog:         prog,
		regReady:     make([]int64, regs+1),
		regFromMem:   make([]bool, regs+1),
		regFromConst: make([]bool, regs+1),
		fetchReady:   now + 2,
	}
	w.skipEmptySegments()
	return w
}

// skipEmptySegments advances past segments with no instructions or zero trip
// counts.
func (w *warp) skipEmptySegments() {
	for !w.done {
		instrs := w.prog.segmentInstrs(w.seg)
		trips := w.prog.segmentTrips(w.seg)
		if len(instrs) > 0 && trips > 0 {
			return
		}
		w.nextSegment()
	}
}

// current returns the instruction at the warp's program counter.
func (w *warp) current() isa.Instruction {
	return w.prog.segmentInstrs(w.seg)[w.pc]
}

// iterIndex returns the loop iteration index used for address generation.
func (w *warp) iterIndex() int {
	if w.seg >= 1 && w.seg <= len(w.prog.loops) {
		return w.iter
	}
	return 0
}

// nextSegment moves to the following segment.
func (w *warp) nextSegment() {
	w.seg++
	w.pc = 0
	w.iter = 0
	if w.seg >= w.prog.numSegments() {
		w.done = true
	}
}

// advance moves the program counter past the current instruction.
func (w *warp) advance(now int64) {
	w.pc++
	instrs := w.prog.segmentInstrs(w.seg)
	if w.pc < len(instrs) {
		return
	}
	w.pc = 0
	w.iter++
	if w.iter < w.prog.segmentTrips(w.seg) {
		return
	}
	w.nextSegment()
	w.skipEmptySegments()
	if !w.done {
		// New segment: model a short instruction-fetch delay.
		w.fetchReady = now + 2
	}
}

// srcBlock returns the register blocking issue, or -1 if all sources are
// ready at cycle now.
func (w *warp) srcBlock(ins isa.Instruction, now int64) int {
	for s := 0; s < int(ins.NSrcs); s++ {
		r := ins.Srcs[s]
		if r == isa.NoReg {
			continue
		}
		if int(r) < len(w.regReady) && w.regReady[r] > now {
			return int(r)
		}
	}
	return -1
}

// writeDst records the destination register's ready time and producer kind.
func (w *warp) writeDst(ins isa.Instruction, ready int64, fromMem, fromConst bool) {
	if ins.Dst == isa.NoReg || int(ins.Dst) >= len(w.regReady) {
		return
	}
	w.regReady[ins.Dst] = ready
	w.regFromMem[ins.Dst] = fromMem
	w.regFromConst[ins.Dst] = fromConst
}
