package gpusim

import (
	"tango/internal/isa"
	"tango/internal/kernel"
)

// issueClass groups the instructions whose ability to issue, once their
// operands are ready, depends on the same SM-wide state: one class per
// functional unit (the unit must be free), with global-memory instructions
// split from the rest of the load/store unit because they additionally need
// a free MSHR or bypass-queue entry.
type issueClass uint8

const (
	// classGlobal follows the per-unit classes, which reuse the unit's value.
	classGlobal     = issueClass(isa.NumFuncUnits)
	numIssueClasses = int(classGlobal) + 1
	// classNone marks a warp that is not waiting in any class.
	classNone = issueClass(numIssueClasses)
)

// classUnit returns the functional unit whose port the class issues to.
func classUnit(c issueClass) isa.FuncUnit {
	if c == classGlobal {
		return isa.UnitMem
	}
	return isa.FuncUnit(c)
}

// decoded is one static instruction with everything the cycle loop would
// otherwise ask package isa on every visit worked out once per kernel.
type decoded struct {
	isa.Instruction
	unit       isa.FuncUnit
	class      issueClass
	latency    int64
	portCycles int64
}

// segment is a straight-line run of instructions executed trips times.
type segment struct {
	instrs []decoded
	trips  int
}

// flatProgram is the per-thread program with sampling applied: the prologue,
// each loop at its (possibly reduced) simulated trip count, and the epilogue,
// with empty segments dropped.
type flatProgram struct {
	segs []segment
}

// newFlatProgram applies the sampling bounds to a kernel program and
// pre-decodes its instructions.
func newFlatProgram(p kernel.Program, s Sampling) flatProgram {
	var fp flatProgram
	add := func(instrs []isa.Instruction, trips int) {
		if len(instrs) == 0 || trips <= 0 {
			return
		}
		seg := segment{instrs: make([]decoded, len(instrs)), trips: trips}
		for i, ins := range instrs {
			d := decoded{
				Instruction: ins,
				unit:        isa.UnitFor(ins),
				latency:     int64(isa.Latency(ins)),
				portCycles:  int64(isa.ThroughputCPI(ins)),
			}
			d.class = issueClass(d.unit)
			if ins.IsMem() && ins.Space == isa.SpaceGlobal {
				d.class = classGlobal
			}
			seg.instrs[i] = d
		}
		fp.segs = append(fp.segs, seg)
	}
	add(p.Prologue, 1)
	for _, l := range p.Loops {
		trip := l.Trip
		if s.MaxLoopIters > 0 && trip > s.MaxLoopIters {
			trip = s.MaxLoopIters
		}
		add(l.Body, trip)
	}
	add(p.Epilogue, 1)
	return fp
}

// warp is the execution state of one 32-thread warp.
type warp struct {
	id    int
	ctaID int
	lanes int

	prog *flatProgram
	seg  int
	pc   int
	// iter is the iteration of the current segment, the loop index address
	// generation uses (always zero outside loops, which run once).
	iter int
	done bool

	// Scoreboard: per-register readiness and, for stall attribution, the
	// dependency reason its producer implies.
	regReady  []int64
	regReason []StallReason

	// syncUntil blocks the warp at a barrier until the given cycle.
	syncUntil int64
	// fetchReady models the instruction-fetch delay at segment boundaries.
	fetchReady int64

	// Where the SM's bookkeeping currently files the warp (see smState).
	// slot is its place in sm.pool for as long as it is resident, idx its
	// position in sm.warps until the next compaction.  class is the issue
	// class it waits in with its operands ready, or classNone; blocked says
	// it sits on the wake heap, counted under blockedReason.  A warp that is
	// neither was launched or issued since the last pass and is on the SM's
	// unsettled list.
	slot          int
	idx           int
	class         issueClass
	blocked       bool
	blockedReason StallReason
}

// current returns the instruction at the warp's program counter.
func (w *warp) current() *decoded {
	return &w.prog.segs[w.seg].instrs[w.pc]
}

// advance moves the program counter past the current instruction.
func (w *warp) advance(now int64) {
	seg := &w.prog.segs[w.seg]
	w.pc++
	if w.pc < len(seg.instrs) {
		return
	}
	w.pc = 0
	w.iter++
	if w.iter < seg.trips {
		return
	}
	w.seg++
	w.iter = 0
	if w.seg == len(w.prog.segs) {
		w.done = true
		return
	}
	// New segment: model a short instruction-fetch delay.
	w.fetchReady = now + 2
}

// srcBlock returns the register blocking issue, or -1 if all sources are
// ready at cycle now.
func (w *warp) srcBlock(ins *decoded, now int64) int {
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

// writeDst records the destination register's ready time and the stall
// reason a consumer waiting on it is charged.
func (w *warp) writeDst(ins *decoded, ready int64, reason StallReason) {
	if ins.Dst == isa.NoReg || int(ins.Dst) >= len(w.regReady) {
		return
	}
	w.regReady[ins.Dst] = ready
	w.regReason[ins.Dst] = reason
}
