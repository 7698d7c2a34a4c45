package par_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tango/internal/par"
)

// countJob counts how many times each part ran.
type countJob struct{ runs []atomic.Int32 }

func (j *countJob) Run(i int) { j.runs[i].Add(1) }

func TestTeamRunsEveryPartOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		team := par.NewTeam(workers)
		for _, parts := range []int{0, 1, 2, 5, 64} {
			job := &countJob{runs: make([]atomic.Int32, parts)}
			team.Do(parts, job)
			for i := range job.runs {
				if n := job.runs[i].Load(); n != 1 {
					t.Fatalf("workers=%d parts=%d: part %d ran %d times", workers, parts, i, n)
				}
			}
		}
		team.Close()
	}
	var nilTeam *par.Team
	job := &countJob{runs: make([]atomic.Int32, 3)}
	nilTeam.Do(3, job)
	if nilTeam.Workers() != 1 || job.runs[2].Load() != 1 {
		t.Fatal("a nil Team must run every part on the caller")
	}
}

type panicJob struct{}

func (panicJob) Run(int) { panic("boom") }

// TestTeamHelperPanicReachesCaller: with two parts that both panic on a
// two-worker team, the caller stops at its first part, so the helper runs
// the other; its panic must surface from Do, and the team must stay usable.
func TestTeamHelperPanicReachesCaller(t *testing.T) {
	team := par.NewTeam(2)
	defer team.Close()
	got := func() (v any) {
		defer func() { v = recover() }()
		team.Do(2, panicJob{})
		return nil
	}()
	pe, ok := got.(*par.PanicError)
	if !ok || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("Do recovered %#v, want the helper's *PanicError carrying \"boom\"", got)
	}
	job := &countJob{runs: make([]atomic.Int32, 4)}
	team.Do(4, job)
	for i := range job.runs {
		if job.runs[i].Load() != 1 {
			t.Fatalf("after a panic, part %d ran %d times", i, job.runs[i].Load())
		}
	}
}

func TestTeamForkAllocatesNothing(t *testing.T) {
	team := par.NewTeam(4)
	defer team.Close()
	job := &countJob{runs: make([]atomic.Int32, 4)}
	team.Do(4, job) // start the helpers
	if allocs := testing.AllocsPerRun(1000, func() { team.Do(4, job) }); allocs != 0 {
		t.Fatalf("a fork allocates %v times, want 0", allocs)
	}
}

// TestTeamHelpersStopWithTeam: dropping teams whose helpers are parked
// must, once they are collected, bring the goroutine count back.
func TestTeamHelpersStopWithTeam(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		for i := 0; i < 100; i++ {
			job := &countJob{runs: make([]atomic.Int32, 3)}
			par.NewTeam(3).Do(3, job)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after dropping 100 teams", before, after)
		}
	}
}
