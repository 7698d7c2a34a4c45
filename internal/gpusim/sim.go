package gpusim

import (
	"fmt"
	"slices"

	"tango/internal/cache"
	"tango/internal/dram"
	"tango/internal/isa"
	"tango/internal/kernel"
	"tango/internal/sched"
)

// maxSimCycles is a safety bound on detailed simulation per kernel.
const maxSimCycles = 20_000_000

// warpSize is the SIMT width.
const warpSize = 32

// Simulator executes kernels on the configured GPU model.
type Simulator struct {
	cfg Config
}

// New constructs a simulator, validating and defaulting the configuration.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg}, nil
}

// pendingFill is an L1 miss whose data has not yet returned; its MSHR stays
// allocated until the fill completes.
type pendingFill struct {
	addr  uint64
	ready int64
}

// maxOutstandingBypass bounds in-flight global requests per SM when the L1 is
// bypassed: the LSU and interconnect queues are finite even without MSHRs.
const maxOutstandingBypass = 48

// maxCoalescedLines bounds the distinct 128-byte lines one warp access can
// touch: one per lane.
const maxCoalescedLines = warpSize

// ctaSlot tracks the live-warp count of one resident CTA.
type ctaSlot struct {
	cta   int
	warps int
}

// wakeSlotBits is the width of the pool-slot field in a wake-heap key: the
// key is the wake-up cycle shifted left by it, plus the slot.  An SM holds at
// most 32 CTAs of 32 warps, so slots fit with room to spare.
const (
	wakeSlotBits = 16
	wakeSlotMask = 1<<wakeSlotBits - 1
)

// smState is the per-SM simulation state.  It outlives a kernel: a worker
// prepares the same SMs for each kernel it simulates.
//
// The cycle loop never walks the warps.  Each warp is filed under what it
// waits for, and refiled only when that changes:
//
//   - A warp's own blocking conditions (barrier, instruction fetch,
//     scoreboard) are written only by its own issue, so it is settled once
//     after it is launched or issues (the unsettled list) and once when its
//     block expires (the wake heap); blocked counts the blocked warps per
//     stall reason in between.
//   - Whether a warp with its operands ready can issue depends only on
//     SM-wide state — its unit's port, and for global-memory instructions the
//     MSHR file or bypass queue — so it is decided once per pass per issue
//     class, over the per-class sets of such warps.
//
// Every set is keyed by index into warps, and the scheduler's view is
// index-aligned with it, so a pick maps straight back to its warp.
type smState struct {
	scheduler sched.Scheduler
	l1        *cache.Cache
	unitFree  [isa.NumFuncUnits]int64

	// warps holds the resident warps in launch order, so IDs and launch
	// cycles are non-decreasing along the slice (the schedulers read age
	// from position).  Retired warps are compacted out at the start of the
	// next pass.
	warps      []*warp
	view       sched.Warps
	nextWarpID int
	live       int // live warps on this SM
	retired    int // warps retired since the last compaction

	// pool is the storage warps come from, sized to the kernel's residency;
	// regReady and regReason are the scoreboards of all its slots,
	// regsPerWarp entries each.  Slots of compacted warps return to free.
	pool        []warp
	regsPerWarp int
	regReady    []int64
	regReason   []StallReason
	free        []int

	// unsettled lists the warps launched or issued since the last pass.
	// wake holds one key per blocked warp — its wake-up cycle above
	// wakeSlotBits, its pool slot below — and blocked counts them by stall
	// reason.  memBlocked is the set of warps blocked on a memory-produced
	// register, class[c] the set of operands-ready warps of issue class c
	// and classN[c] its size; sets is the backing store of every index-keyed
	// set.
	unsettled  []*warp
	wake       eventHeap
	blocked    [NumStallReasons]int64
	memBlocked sched.Bitset
	class      [numIssueClasses]sched.Bitset
	classN     [numIssueClasses]int64
	sets       []uint64

	// ctaLive holds per-CTA live-warp counts, maintained incrementally as
	// warps retire; a CTA's slot is removed when its last warp finishes,
	// freeing residency for the dispatcher.  len(ctaLive) is the number of
	// resident CTAs.
	ctaLive []ctaSlot

	fills []pendingFill
	// bypassInFlight holds the completion times of outstanding global
	// requests issued while the L1 is bypassed.
	bypassInFlight []int64

	// events is the set of future cycles at which something on this SM
	// changes, which the fast-forward path jumps to.
	events eventSet

	lineBuf []uint64
}

// prepare returns the SM to its initial state for a kernel that keeps at
// most capacity warps of regs registers resident.  Only the models and the
// buffers carry over from the previous kernel; all else starts from zero.
func (sm *smState) prepare(capacity, regs int) {
	sm.scheduler.Reset()
	sm.l1.Reset()
	sm.events.reset()
	sm.wake.reset()
	words := (capacity + 63) / 64
	*sm = smState{
		scheduler:      sm.scheduler,
		l1:             sm.l1,
		warps:          sm.warps[:0],
		view:           sched.Warps{IDs: sm.view.IDs[:0]},
		pool:           resize(sm.pool, capacity),
		regsPerWarp:    regs + 1,
		regReady:       resize(sm.regReady, capacity*(regs+1)),
		regReason:      resize(sm.regReason, capacity*(regs+1)),
		free:           sm.free[:0],
		unsettled:      sm.unsettled[:0],
		wake:           sm.wake,
		sets:           resize(sm.sets, (numIssueClasses+3)*words),
		ctaLive:        sm.ctaLive[:0],
		fills:          sm.fills[:0],
		bypassInFlight: sm.bypassInFlight[:0],
		events:         sm.events,
		lineBuf:        sm.lineBuf,
	}
	for slot := capacity - 1; slot >= 0; slot-- {
		sm.free = append(sm.free, slot)
	}
	clear(sm.sets)
	carve := func(i int) sched.Bitset { return sm.sets[i*words : (i+1)*words : (i+1)*words] }
	for c := range sm.class {
		sm.class[c] = carve(c)
	}
	sm.memBlocked = carve(numIssueClasses)
	sm.view.Ready = carve(numIssueClasses + 1)
	sm.view.WaitingOnMemory = carve(numIssueClasses + 2)
}

// resize returns s with length n, reusing its storage when that is large
// enough.  The contents are unspecified.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// launchWarp starts a warp of the given CTA at the head of prog.  It is
// settled, like every warp whose state changed, in the pass that launched it.
func (sm *smState) launchWarp(ctaID, lanes int, prog *flatProgram, now int64) {
	slot := sm.free[len(sm.free)-1]
	sm.free = sm.free[:len(sm.free)-1]
	regs := sm.regsPerWarp
	w := &sm.pool[slot]
	*w = warp{
		id:         sm.nextWarpID,
		ctaID:      ctaID,
		lanes:      lanes,
		prog:       prog,
		regReady:   sm.regReady[slot*regs : (slot+1)*regs],
		regReason:  sm.regReason[slot*regs : (slot+1)*regs],
		fetchReady: now + 2,
		slot:       slot,
		idx:        len(sm.warps),
		class:      classNone,
	}
	clear(w.regReady)
	sm.nextWarpID++
	sm.warps = append(sm.warps, w)
	sm.view.IDs = append(sm.view.IDs, w.id)
	sm.live++
	sm.unsettled = append(sm.unsettled, w)
	sm.events.push(w.fetchReady)
}

// settle files w under what it waits for at cycle now: blocked on one of its
// own conditions until a known cycle, or operands-ready in its issue class.
func (sm *smState) settle(w *warp, now int64) {
	var until int64
	switch {
	case w.syncUntil > now:
		w.blockedReason, until = StallSync, w.syncUntil
	case w.fetchReady > now:
		w.blockedReason, until = StallInstFetch, w.fetchReady
	default:
		ins := w.current()
		r := w.srcBlock(ins, now)
		if r < 0 {
			w.class = ins.class
			sm.class[w.class].Set(w.idx)
			sm.classN[w.class]++
			return
		}
		w.blockedReason, until = w.regReason[r], w.regReady[r]
	}
	w.blocked = true
	sm.blocked[w.blockedReason]++
	if w.blockedReason == StallMemoryDependency {
		sm.memBlocked.Set(w.idx)
	}
	sm.wake.push(until<<wakeSlotBits | int64(w.slot))
}

// settleChanged settles the warps launched or issued since the last pass and
// those whose block expires by cycle now.
func (sm *smState) settleChanged(now int64) {
	for _, w := range sm.unsettled {
		sm.settle(w, now)
	}
	sm.unsettled = sm.unsettled[:0]
	for sm.wake.len() > 0 && sm.wake.peek()>>wakeSlotBits <= now {
		w := &sm.pool[sm.wake.pop()&wakeSlotMask]
		w.blocked = false
		sm.blocked[w.blockedReason]--
		if w.blockedReason == StallMemoryDependency {
			sm.memBlocked.Clear(w.idx)
		}
		sm.settle(w, now)
	}
}

// globalThrottled reports whether the SM can accept no further global-memory
// access: a full MSHR file, or with the L1 bypassed the finite LSU and
// interconnect queues.
func (sm *smState) globalThrottled() bool {
	cfg := sm.l1.Config()
	if cfg.Bypassed() {
		return len(sm.bypassInFlight) >= maxOutstandingBypass
	}
	return cfg.MSHRs > 0 && sm.l1.PendingMisses() >= cfg.MSHRs
}

// ctaWarps returns the live warp count of the given resident CTA.
func (sm *smState) ctaWarps(ctaID int) int {
	for i := range sm.ctaLive {
		if sm.ctaLive[i].cta == ctaID {
			return sm.ctaLive[i].warps
		}
	}
	return 0
}

// retireWarp updates the live bookkeeping after w executed its last
// instruction.  The warp stays in sm.warps until the next compaction.
func (sm *smState) retireWarp(w *warp) {
	sm.live--
	sm.retired++
	for i := range sm.ctaLive {
		if sm.ctaLive[i].cta == w.ctaID {
			sm.ctaLive[i].warps--
			if sm.ctaLive[i].warps == 0 {
				sm.ctaLive = append(sm.ctaLive[:i], sm.ctaLive[i+1:]...)
			}
			break
		}
	}
}

// compactWarps removes retired warps in place, preserving launch order, and
// rebuilds everything keyed by position from the warps' own state.
func (sm *smState) compactWarps() {
	kept := sm.warps[:0]
	sm.view.IDs = sm.view.IDs[:0]
	for c := range sm.class {
		clear(sm.class[c])
	}
	clear(sm.memBlocked)
	for _, w := range sm.warps {
		if w.done {
			sm.free = append(sm.free, w.slot)
			continue
		}
		w.idx = len(kept)
		kept = append(kept, w)
		sm.view.IDs = append(sm.view.IDs, w.id)
		switch {
		case w.class != classNone:
			sm.class[w.class].Set(w.idx)
		case w.blocked && w.blockedReason == StallMemoryDependency:
			sm.memBlocked.Set(w.idx)
		}
	}
	sm.warps = kept
	sm.retired = 0
}

// drainFills installs lines whose data has arrived by cycle now and retires
// completed bypass requests.
func (sm *smState) drainFills(now int64) {
	kept := sm.fills[:0]
	for _, f := range sm.fills {
		if f.ready <= now {
			sm.l1.Fill(f.addr)
		} else {
			kept = append(kept, f)
		}
	}
	sm.fills = kept

	keptB := sm.bypassInFlight[:0]
	for _, r := range sm.bypassInFlight {
		if r > now {
			keptB = append(keptB, r)
		}
	}
	sm.bypassInFlight = keptB
}

// regionLayout assigns a base device address to each kernel buffer.
type regionLayout struct {
	base [isa.NumRegions]uint64
	size [isa.NumRegions]uint64
}

func layoutRegions(k *kernel.Kernel) regionLayout {
	var rl regionLayout
	align := func(v uint64) uint64 { return (v + 255) &^ 255 }
	cursor := uint64(4096)
	place := func(r isa.Region, size int64) {
		if size <= 0 {
			size = 256
		}
		rl.base[r] = cursor
		rl.size[r] = uint64(size)
		cursor = align(cursor + uint64(size))
	}
	place(isa.RegionInput, k.InputBytes)
	place(isa.RegionWeights, k.WeightBytes)
	place(isa.RegionBias, int64(k.Launch.CmemBytes))
	place(isa.RegionOutput, k.OutputBytes)
	place(isa.RegionScratch, 4096)
	return rl
}

// machine is the kernel-independent part of a simulation — the memory system
// and the modeled SMs — which one worker recycles from kernel to kernel.
type machine struct {
	l2  *cache.Cache
	mem *dram.DRAM
	sms []*smState
}

// newMachine builds the memory system; SMs are added as kernels need them.
func (s *Simulator) newMachine() (*machine, error) {
	l2, err := cache.New(s.cfg.L2)
	if err != nil {
		return nil, err
	}
	mem, err := dram.New(s.cfg.DRAM)
	if err != nil {
		return nil, err
	}
	return &machine{l2: l2, mem: mem}, nil
}

// prepare resets the memory system and returns n SMs in their initial state,
// each sized for capacity resident warps of regs registers.
func (m *machine) prepare(cfg Config, n, capacity, regs int) ([]*smState, error) {
	m.l2.Reset()
	m.mem.Reset()
	for len(m.sms) < n {
		sc, err := sched.New(cfg.Scheduler)
		if err != nil {
			return nil, err
		}
		l1, err := cache.New(cfg.L1D)
		if err != nil {
			return nil, err
		}
		m.sms = append(m.sms, &smState{
			scheduler: sc,
			l1:        l1,
			lineBuf:   make([]uint64, 0, maxCoalescedLines),
		})
	}
	for _, sm := range m.sms[:n] {
		sm.prepare(capacity, regs)
	}
	return m.sms[:n], nil
}

// run is the simulation of one kernel in progress.
type run struct {
	cfg Config
	k   *kernel.Kernel
	fp  flatProgram
	rl  regionLayout
	l2  *cache.Cache
	mem *dram.DRAM
	sms []*smState

	totalCTAs   int
	sampledCTAs int
	ctasPerSM   int

	// nextCTA is the CTA dispatcher's cursor.  liveWarps counts live warps
	// across all SMs so loop termination needs no per-cycle rescan.
	nextCTA   int
	liveWarps int

	now              int64
	simThreadInstr   int64
	maxWarpsResident int
	activity         Activity
	st               *KernelStats

	// stalls accumulates the current cycle's per-warp stall attribution so
	// that fast-forwarded cycles can replay it cheaply.
	stalls [NumStallReasons]int64
}

// RunKernel simulates one kernel and returns scaled statistics.
func (s *Simulator) RunKernel(k *kernel.Kernel) (*KernelStats, error) {
	m, err := s.newMachine()
	if err != nil {
		return nil, err
	}
	return s.runKernel(k, m)
}

// runKernel simulates one kernel on a machine left in any state by an
// earlier kernel.
func (s *Simulator) runKernel(k *kernel.Kernel, m *machine) (*KernelStats, error) {
	r, err := s.newRun(k, m)
	if err != nil {
		return nil, err
	}
	for !r.finished() {
		if r.now > maxSimCycles {
			return nil, fmt.Errorf("gpusim: kernel %s exceeded %d simulated cycles", k.Name, maxSimCycles)
		}
		r.cycle()
	}
	return r.finish(), nil
}

// newRun sizes the sampled simulation of k, prepares the machine for it and
// dispatches the first CTAs.
func (s *Simulator) newRun(k *kernel.Kernel, m *machine) (*run, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	cfg := s.cfg
	r := &run{
		cfg:       cfg,
		k:         k,
		fp:        newFlatProgram(k.Program, cfg.Sampling),
		rl:        layoutRegions(k),
		l2:        m.l2,
		mem:       m.mem,
		totalCTAs: k.Launch.Blocks(),
	}
	warpsPerCTA := k.Launch.WarpsPerBlock()

	// Occupancy-driven CTA residency: an SM keeps as many blocks resident as
	// its warp capacity allows, up to the hardware limit of 32 blocks, like
	// real hardware does — so kernels with small blocks keep many blocks
	// resident, and a kernel whose single block exceeds capacity still runs
	// one.  The configured MaxCTAsPerSM is the fallback residency for device
	// models that do not bound warps per SM.
	r.ctasPerSM = cfg.MaxCTAsPerSM
	if cfg.Device.MaxWarpsPerSM > 0 {
		r.ctasPerSM = cfg.Device.MaxWarpsPerSM / warpsPerCTA
	}
	if r.ctasPerSM > 32 {
		r.ctasPerSM = 32
	}
	if r.ctasPerSM < 1 {
		r.ctasPerSM = 1
	}

	r.sampledCTAs = r.totalCTAs
	if cfg.Sampling.MaxCTAs > 0 && r.sampledCTAs > cfg.Sampling.MaxCTAs {
		// Sample at least enough CTAs to populate the modeled SMs at the
		// kernel's natural residency.
		minSample := r.ctasPerSM * cfg.ModeledSMs
		r.sampledCTAs = cfg.Sampling.MaxCTAs
		if r.sampledCTAs < minSample {
			r.sampledCTAs = minSample
		}
		if r.sampledCTAs > r.totalCTAs {
			r.sampledCTAs = r.totalCTAs
		}
	}

	// Modeled SMs, sharing the machine's L2 and DRAM.
	modeled := cfg.ModeledSMs
	if modeled > r.sampledCTAs {
		modeled = r.sampledCTAs
	}
	if modeled < 1 {
		modeled = 1
	}
	sms, err := m.prepare(cfg, modeled, r.ctasPerSM*warpsPerCTA, k.Launch.Regs)
	if err != nil {
		return nil, err
	}
	r.sms = sms

	r.st = &KernelStats{Kernel: k}
	r.st.TotalThreadInstructions = k.DynamicInstructions()
	// Exact op/type mixes for the full kernel from the program template.
	ops := k.Program.OpCounts()
	types := k.Program.TypeCounts()
	threads := int64(k.Launch.TotalThreads())
	for i := range ops {
		r.st.OpCounts[i] = ops[i] * threads
	}
	for i := range types {
		r.st.TypeCounts[i] = types[i] * threads
	}

	// Initial assignment.
	for _, sm := range r.sms {
		r.launchCTAs(sm)
	}
	return r, nil
}

// launchCTAs dispatches sampled CTAs into the SM's free residency.
func (r *run) launchCTAs(sm *smState) {
	for len(sm.ctaLive) < r.ctasPerSM && r.nextCTA < r.sampledCTAs {
		warpsPerCTA := r.k.Launch.WarpsPerBlock()
		ctaID := r.nextCTA
		r.nextCTA++
		sm.ctaLive = append(sm.ctaLive, ctaSlot{cta: ctaID, warps: warpsPerCTA})
		remaining := r.k.Launch.ThreadsPerBlock()
		for wi := 0; wi < warpsPerCTA; wi++ {
			lanes := warpSize
			if remaining < warpSize {
				lanes = remaining
			}
			remaining -= lanes
			sm.launchWarp(ctaID, lanes, &r.fp, r.now)
			r.liveWarps++
		}
	}
}

// finished reports whether every sampled CTA has run to completion.
func (r *run) finished() bool {
	return r.liveWarps == 0 && r.nextCTA >= r.sampledCTAs
}

// cycle runs every SM for the current cycle and advances time: by one cycle
// if anything issued, otherwise to the next pending event, charging the
// skipped cycles with this cycle's stall attribution.
func (r *run) cycle() {
	r.stalls = [NumStallReasons]int64{}
	issuedAny := false
	for _, sm := range r.sms {
		if r.pass(sm) {
			issuedAny = true
		}
	}
	next := r.now + 1
	if !issuedAny {
		next = nextEventTime(r.sms, r.now)
	}
	for i, v := range r.stalls {
		r.st.Stalls[i] += v * (next - r.now)
	}
	r.now = next
}

// pass runs one SM for the current cycle — retirement and dispatch, settling
// the warps whose state changed, the issue slots, and the cycle's stall
// attribution — and reports whether any warp issued.
func (r *run) pass(sm *smState) bool {
	now := r.now
	sm.events.drainThrough(now)
	sm.drainFills(now)
	if sm.retired > 0 {
		sm.compactWarps()
	}
	// Launch new sampled CTAs into freed residency.
	r.launchCTAs(sm)
	if sm.live > r.maxWarpsResident {
		r.maxWarpsResident = sm.live
	}
	sm.settleChanged(now)

	// Decide each issue class from the SM-wide state as it stands now: its
	// members are all pipe-busy, all memory-throttled, or all ready — in
	// which case the verdict on those the scheduler passes over is
	// not-selected.
	view := &sm.view
	clear(view.Ready)
	copy(view.WaitingOnMemory, sm.memBlocked)
	var verdict [numIssueClasses]StallReason
	for c := range sm.class {
		switch {
		case sm.classN[c] == 0:
			// No warp waits in the class: nothing to decide or to charge.
		case sm.unitFree[classUnit(issueClass(c))] > now:
			verdict[c] = StallPipeBusy
		case issueClass(c) == classGlobal && sm.globalThrottled():
			verdict[c] = StallMemoryThrottle
			view.WaitingOnMemory.Or(sm.class[c])
		default:
			verdict[c] = StallNotSelected
			view.Ready.Or(sm.class[c])
		}
	}

	issued := false
	var refused int64
	for slot := 0; slot < r.cfg.IssueWidth; slot++ {
		pick := sm.scheduler.Pick(view)
		if pick < 0 {
			break
		}
		// Picked, the warp leaves this cycle's issue pool.  Marking it as
		// memory-waiting shows the two-level scheduler what per-slot
		// reclassification would: an issued warp gone from the candidates
		// (dropping out of the active set), a refused one blocked on
		// memory.  GTO and LRR only read Ready.
		view.Ready.Clear(pick)
		view.WaitingOnMemory.Set(pick)
		w := sm.warps[pick]
		unit := w.current().unit
		if !r.issue(w, sm) {
			// Memory throttle: the warp cannot retry this cycle, and is
			// charged for it whatever becomes of its class.
			refused++
			continue
		}
		issued = true
		r.simThreadInstr += int64(w.lanes)
		// The issue changed what the warp waits for; it is settled afresh
		// next pass and charged nothing in this one.
		sm.class[w.class].Clear(pick)
		sm.classN[w.class]--
		w.class = classNone
		if w.done {
			sm.retireWarp(w)
			r.liveWarps--
		} else {
			sm.unsettled = append(sm.unsettled, w)
		}
		// The issue occupied its functional unit, so structural hazards
		// still serialize within the cycle: the unit's classes are pipe-busy
		// for the remaining slots.
		for c := range sm.class {
			if classUnit(issueClass(c)) == unit && verdict[c] == StallNotSelected {
				verdict[c] = StallPipeBusy
				view.Ready.AndNot(sm.class[c])
			}
		}
	}

	for c := range sm.class {
		r.stalls[verdict[c]] += sm.classN[c]
	}
	r.stalls[verdict[classGlobal]] -= refused
	r.stalls[StallMemoryThrottle] += refused
	for reason, n := range sm.blocked {
		r.stalls[reason] += n
	}
	return issued
}

// finish scales the sampled statistics to the full kernel.
func (r *run) finish() *KernelStats {
	cfg, k, st := r.cfg, r.k, r.st
	st.SimCycles = r.now
	if st.SimCycles == 0 {
		st.SimCycles = 1
	}
	simThreadInstr := r.simThreadInstr
	st.SimThreadInstructions = simThreadInstr
	if simThreadInstr == 0 {
		simThreadInstr = 1
	}
	st.ScaleFactor = float64(st.TotalThreadInstructions) / float64(simThreadInstr)

	// Scale memory system and activity statistics to the full kernel.
	st.L2 = r.l2.Stats()
	st.DRAM = r.mem.Stats()
	for _, sm := range r.sms {
		st.L1.Add(sm.l1.Stats())
	}
	scaleCache := func(cs *cache.Stats, f float64) {
		cs.Accesses = int64(float64(cs.Accesses) * f)
		cs.Hits = int64(float64(cs.Hits) * f)
		cs.Misses = int64(float64(cs.Misses) * f)
		cs.MergedMiss = int64(float64(cs.MergedMiss) * f)
		cs.ResFails = int64(float64(cs.ResFails) * f)
		cs.Bypasses = int64(float64(cs.Bypasses) * f)
		cs.Evictions = int64(float64(cs.Evictions) * f)
		cs.FillsArrive = int64(float64(cs.FillsArrive) * f)
	}
	scaleCache(&st.L1, st.ScaleFactor)
	scaleCache(&st.L2, st.ScaleFactor)
	st.DRAM.Requests = int64(float64(st.DRAM.Requests) * st.ScaleFactor)
	st.DRAM.ReadRequests = int64(float64(st.DRAM.ReadRequests) * st.ScaleFactor)
	st.DRAM.WriteRequests = int64(float64(st.DRAM.WriteRequests) * st.ScaleFactor)
	st.DRAM.BytesMoved = int64(float64(st.DRAM.BytesMoved) * st.ScaleFactor)
	st.DRAM.StallCycles = int64(float64(st.DRAM.StallCycles) * st.ScaleFactor)
	r.activity.Scale(st.ScaleFactor)
	st.Activity = r.activity

	// Estimate full-kernel cycles from the simulated throughput: the device
	// runs min(SMs, CTAs) SMs in parallel at the observed per-SM rate.
	perSMThroughput := float64(st.SimThreadInstructions) / float64(st.SimCycles) / float64(len(r.sms))
	if perSMThroughput <= 0 {
		perSMThroughput = 1
	}
	utilSMs := cfg.Device.SMs
	if r.totalCTAs < utilSMs {
		utilSMs = r.totalCTAs
	}
	if utilSMs < 1 {
		utilSMs = 1
	}
	st.Cycles = int64(float64(st.TotalThreadInstructions) / (perSMThroughput * float64(utilSMs)))
	if st.Cycles < st.SimCycles && r.sampledCTAs == r.totalCTAs && cfg.Sampling.MaxLoopIters == 0 &&
		utilSMs <= len(r.sms) {
		// Exhaustive simulation of a small kernel on every SM it would
		// occupy: trust the simulated time.  With fewer SMs modeled, the
		// simulated time is a smaller machine's, and the extrapolation
		// stands.
		st.Cycles = st.SimCycles
	}
	if st.Cycles <= 0 {
		st.Cycles = 1
	}
	st.Seconds = float64(st.Cycles) / (float64(cfg.Device.CoreClockMHz) * 1e6)

	st.MaxResidentWarpsPerSM = r.maxWarpsResident
	residentThreads := r.maxWarpsResident * warpSize
	if residentThreads > 0 {
		st.AllocatedRegsPerSM = k.Launch.Regs * residentThreads
		st.LiveRegsPerSM = k.Program.MaxRegister() * residentThreads
	}
	return st
}

// issue executes one instruction of the warp.  It returns false when the
// instruction could not complete (memory throttle) and must be retried.
// Every future effect (write-back, port release, barrier, fetch) is also
// added to the SM's event set so the fast-forward path can find it.
func (r *run) issue(w *warp, sm *smState) bool {
	now, act := r.now, &r.activity
	ins := w.current()
	lanes := int64(w.lanes)
	portCycles := ins.portCycles

	if ins.IsMem() && ins.Space == isa.SpaceGlobal {
		ready, transactions, ok := r.globalAccess(w, sm, ins)
		if !ok {
			r.st.Stalls[StallMemoryThrottle]++
			return false
		}
		act.GlobalAccesses += int64(transactions)
		// The load/store port is occupied for one cycle per generated memory
		// transaction, so poorly coalesced accesses consume proportionally
		// more issue bandwidth.
		portCycles = int64(transactions)
		if portCycles < 1 {
			portCycles = 1
		}
		if ins.IsLoad() && ins.Dst != isa.NoReg {
			w.writeDst(ins, ready, StallMemoryDependency)
			sm.events.push(ready)
		}
	} else if ins.IsMem() && ins.Space == isa.SpaceShared {
		act.SharedAccesses += lanes
		if ins.IsLoad() && ins.Dst != isa.NoReg {
			w.writeDst(ins, now+24, StallMemoryDependency)
			sm.events.push(now + 24)
		}
	} else if ins.IsMem() && ins.Space == isa.SpaceConst {
		act.ConstAccesses++
		if ins.IsLoad() && ins.Dst != isa.NoReg {
			w.writeDst(ins, now+20, StallConstMemDependency)
			sm.events.push(now + 20)
		}
	} else if ins.Op == isa.OpBar {
		// Barrier: the warp waits for its CTA mates (approximated as a fixed
		// window proportional to the CTA's live warp count).
		w.syncUntil = now + int64(8*sm.ctaWarps(w.ctaID))
		sm.events.push(w.syncUntil)
	} else if ins.Dst != isa.NoReg {
		w.writeDst(ins, now+ins.latency, StallExecDependency)
		sm.events.push(now + ins.latency)
	}

	// Pipeline occupancy and activity accounting.
	sm.unitFree[ins.unit] = now + portCycles
	sm.events.push(sm.unitFree[ins.unit])
	act.IssuedInstructions += lanes
	act.RegReads += int64(ins.NSrcs) * lanes
	if ins.Dst != isa.NoReg {
		act.RegWrites += lanes
	}
	switch ins.unit {
	case isa.UnitSP, isa.UnitCtrl, isa.UnitNone:
		act.SPOps += lanes
	case isa.UnitFPU:
		act.FPUOps += lanes
	case isa.UnitSFU:
		act.SFUOps += lanes
	}
	if w.pc == 0 {
		act.InstFetches++
	}

	w.advance(now)
	if !w.done && w.fetchReady > now {
		sm.events.push(w.fetchReady)
	}
	return true
}

// globalAccess models a global-memory warp transaction: coalescing, L1, L2
// and DRAM.  It returns the cycle at which the data is available, the number
// of memory transactions generated, and false if the L1 could not reserve an
// MSHR.
func (r *run) globalAccess(w *warp, sm *smState, ins *decoded) (ready int64, transactions int, ok bool) {
	now, l1 := r.now, sm.l1
	l1cfg := l1.Config()
	// With the L1 bypassed the finite LSU / interconnect queues bound the
	// outstanding requests.  The pass checks this too, but an earlier issue
	// in the same cycle may have filled the queue since.
	if l1cfg.Bypassed() && len(sm.bypassInFlight) >= maxOutstandingBypass {
		return 0, 0, false
	}

	pat := &ins.Pattern
	base := r.rl.base[pat.Region]
	footprint := pat.Footprint
	if footprint == 0 {
		footprint = r.rl.size[pat.Region]
	}
	if footprint == 0 {
		footprint = 256
	}
	lineBytes := uint64(128)

	// Coalesce the lanes' addresses into unique 128-byte transactions using a
	// fixed-capacity scratch slice (at most one line per lane), visited in
	// lane order so the memory system sees a deterministic access sequence.
	// Neighbouring lanes mostly share a line, so the search for a line
	// already seen starts from the latest.
	lines := sm.lineBuf[:0]
	iter := int64(w.iter)
	for lane := 0; lane < w.lanes; lane++ {
		off := int64(pat.Base) + int64(lane)*pat.ThreadStride + iter*pat.IterStride + int64(w.ctaID)*pat.BlockStride
		if off < 0 {
			off = -off
		}
		o := uint64(off)
		if o >= footprint {
			o %= footprint
		}
		line := (base + o) / lineBytes
		i := len(lines) - 1
		for i >= 0 && lines[i] != line {
			i--
		}
		if i < 0 {
			lines = append(lines, line)
		}
	}
	sm.lineBuf = lines

	ready = now
	for _, lineAddr := range lines {
		addr := lineAddr * lineBytes
		var lineReady int64
		if l1cfg.Bypassed() {
			lineReady = r.l2Access(addr, ins.IsStore())
			sm.bypassInFlight = append(sm.bypassInFlight, lineReady)
			sm.events.push(lineReady)
		} else {
			switch l1.Access(addr, ins.IsStore()) {
			case cache.Hit:
				lineReady = now + int64(l1cfg.HitLatency)
			case cache.MissMerged:
				lineReady = now + int64(l1cfg.HitLatency) + 30
			case cache.ReservationFail:
				return 0, 0, false
			default: // Miss
				lineReady = r.l2Access(addr, ins.IsStore())
				// The MSHR stays allocated until the fill returns.
				sm.fills = append(sm.fills, pendingFill{addr: addr, ready: lineReady})
				sm.events.push(lineReady)
			}
		}
		if lineReady > ready {
			ready = lineReady
		}
	}
	// Serialize additional transactions on the LSU port.
	ready += int64(2 * (len(lines) - 1))
	return ready, len(lines), true
}

// l2Access models an access that missed (or bypassed) the L1.
func (r *run) l2Access(addr uint64, isWrite bool) int64 {
	now, l2 := r.now, r.l2
	switch l2.Access(addr, isWrite) {
	case cache.Hit:
		return now + int64(l2.Config().HitLatency)
	case cache.MissMerged:
		return now + int64(l2.Config().HitLatency) + int64(r.cfg.DRAM.LatencyCycles)/2
	case cache.ReservationFail:
		// Treat as a miss with an extra queueing penalty.
		ready := r.mem.Access(addr, isWrite, now+int64(l2.Config().HitLatency))
		return ready + 50
	default: // Miss
		ready := r.mem.Access(addr, isWrite, now+int64(l2.Config().HitLatency))
		l2.Fill(addr)
		return ready
	}
}

// nextEventTime returns the earliest cycle after now at which any SM has a
// pending event.  When no events are pending it returns now+1 so the cycle
// loop always makes progress.
func nextEventTime(sms []*smState, now int64) int64 {
	next := int64(-1)
	for _, sm := range sms {
		sm.events.drainThrough(now)
		if t, ok := sm.events.next(); ok && (next == -1 || t < next) {
			next = t
		}
	}
	if next == -1 {
		return now + 1
	}
	return next
}
