package gpusim

import (
	"testing"

	"tango/internal/kernel"
	"tango/internal/networks"
	"tango/internal/sched"
)

// TestWarpsStayInLaunchOrder steps a kernel that runs several CTA waves per
// SM and checks, after every cycle — so after every launch and compaction —
// what the schedulers and the bookkeeping take for granted: along sm.warps
// both IDs and launch cycles never decrease (position is age, which is why
// the scheduler view carries no age), the view lists the same warps, and
// every index-keyed set says of each position what the warp there says of
// itself.
func TestWarpsStayInLaunchOrder(t *testing.T) {
	n, err := networks.NewCifarNet()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := kernel.Generate(n)
	if err != nil {
		t.Fatal(err)
	}
	conv1 := ks[0]
	for _, kind := range sched.Kinds() {
		sim, err := New(DefaultConfig().WithScheduler(kind).WithSampling(Sampling{MaxCTAs: 24, MaxLoopIters: 5}))
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.newMachine()
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.newRun(conv1, m)
		if err != nil {
			t.Fatal(err)
		}
		launched := make([]map[int]int64, len(r.sms)) // warp ID -> cycle first seen
		for i := range launched {
			launched[i] = make(map[int]int64)
		}
		compactions := 0
		for !r.finished() {
			at := r.now
			for _, sm := range r.sms {
				if sm.retired > 0 {
					compactions++
				}
			}
			r.cycle()
			for si, sm := range r.sms {
				if len(sm.view.IDs) != len(sm.warps) {
					t.Fatalf("%s: cycle %d: view lists %d warps, SM %d holds %d", kind, at, len(sm.view.IDs), si, len(sm.warps))
				}
				prevID, prevLaunch := -1, int64(-1)
				for i, w := range sm.warps {
					if _, seen := launched[si][w.id]; !seen {
						launched[si][w.id] = at
					}
					if w.id <= prevID || launched[si][w.id] < prevLaunch {
						t.Fatalf("%s: cycle %d: SM %d position %d holds warp %d launched at %d after warp %d launched at %d",
							kind, at, si, i, w.id, launched[si][w.id], prevID, prevLaunch)
					}
					prevID, prevLaunch = w.id, launched[si][w.id]
					if w.idx != i || sm.view.IDs[i] != w.id {
						t.Fatalf("%s: cycle %d: SM %d position %d: warp %d believes it is at %d, view says warp %d",
							kind, at, si, i, w.id, w.idx, sm.view.IDs[i])
					}
					for c := range sm.class {
						if sm.class[c].Has(i) != (w.class == issueClass(c)) {
							t.Fatalf("%s: cycle %d: SM %d warp %d is in class %d, set %d disagrees", kind, at, si, w.id, w.class, c)
						}
					}
					if sm.memBlocked.Has(i) != (w.blocked && w.blockedReason == StallMemoryDependency) {
						t.Fatalf("%s: cycle %d: SM %d warp %d: memory-blocked set disagrees with the warp", kind, at, si, w.id)
					}
				}
				members := sm.memBlocked.Count()
				for c := range sm.class {
					if n := sm.class[c].Count(); int64(n) != sm.classN[c] {
						t.Fatalf("%s: cycle %d: SM %d: class %d holds %d warps, its count says %d", kind, at, si, c, n, sm.classN[c])
					}
					members += sm.class[c].Count()
				}
				if members > len(sm.warps) {
					t.Fatalf("%s: cycle %d: SM %d: sets hold %d positions, only %d warps", kind, at, si, members, len(sm.warps))
				}
			}
		}
		for si, sm := range r.sms {
			if waves := sm.nextWarpID / len(sm.pool); waves < 3 {
				t.Errorf("%s: SM %d ran %d waves, want several", kind, si, waves)
			}
		}
		if compactions < 10 {
			t.Errorf("%s: only %d compactions, want many", kind, compactions)
		}
	}
}
