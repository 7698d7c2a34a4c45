package par

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Job is one fork of a Team: Run(i) does part i of the work.  Parts run
// concurrently, each exactly once, on whichever team member claims it.
type Job interface{ Run(part int) }

// Team is a fork-join group for one owner: up to Workers()-1 parked helper
// goroutines plus the goroutine that calls Do.  It is the compute engine's
// fork, built so a fork allocates nothing: the owner hands Do a pointer to
// a Job that lives in memory it already owns, and the helpers wait on
// channels between forks rather than spin.  Helpers start on the first
// fork that needs them and stop when the Team is closed or collected, so no
// helper outlives its Team; they never reference the Team itself.
//
// Unlike ForEach, a Team has no fault-injection point and no error path: a
// part cannot fail short of panicking, and a panic in a helper is re-raised
// on the caller of Do.  A Team is not safe for concurrent use, and Do must
// not be called from inside a part.  A nil *Team runs everything serially.
// Hold a Team by pointer (NewTeam): its collection is what stops the
// helpers.
type Team struct {
	workers int
	c       *crew
}

// crew is a Team's helpers and the fork they share.  Do publishes job and
// parts before waking the helpers, and reads failed after wg.Wait.
type crew struct {
	wake   []chan struct{}
	wg     sync.WaitGroup
	job    Job
	parts  int
	next   atomic.Int64
	failed atomic.Pointer[PanicError]
}

// NewTeam returns a Team of the given size; n < 1 means one.
func NewTeam(n int) *Team { return &Team{workers: max(n, 1)} }

// SetWorkers resizes the team; n < 1 means one.  Growing it starts no
// goroutine until a fork needs one.
func (t *Team) SetWorkers(n int) { t.workers = max(n, 1) }

// Workers returns the team size, the caller included.
func (t *Team) Workers() int {
	if t == nil {
		return 1
	}
	return t.workers
}

// Do runs job.Run(i) for every i in [0, parts) on up to min(Workers(),
// parts) goroutines, the caller among them, and returns when all have
// finished.  Which member runs a part is not fixed, so a part must depend
// only on its index.
func (t *Team) Do(parts int, job Job) {
	helpers := min(t.Workers(), parts) - 1
	if helpers <= 0 {
		for i := 0; i < parts; i++ {
			job.Run(i)
		}
		return
	}
	c := t.crew(helpers)
	c.job, c.parts = job, parts
	c.next.Store(0)
	c.wg.Add(helpers)
	for _, w := range c.wake[:helpers] {
		w <- struct{}{}
	}
	defer c.join()
	var part int
	c.work(&part)
}

// crew returns the team's crew with at least n helpers running.
func (t *Team) crew(n int) *crew {
	if t.c == nil {
		t.c = &crew{}
		runtime.SetFinalizer(t, (*Team).Close)
	}
	for len(t.c.wake) < n {
		w := make(chan struct{}, 1)
		t.c.wake = append(t.c.wake, w)
		go t.c.help(w)
	}
	return t.c
}

// Close stops the helpers.  The Team stays usable: a later fork starts new
// ones.  A Team that is garbage collected is closed first.
func (t *Team) Close() {
	if t.c == nil {
		return
	}
	for _, w := range t.c.wake {
		close(w)
	}
	t.c = nil
	runtime.SetFinalizer(t, nil)
}

// help is a helper goroutine: one round of work per wake-up, until its
// channel closes.  A round keeps the first panic for the caller.
func (c *crew) help(wake <-chan struct{}) {
	for range wake {
		part := -1
		func() {
			defer func() {
				if p := recover(); p != nil {
					c.failed.CompareAndSwap(nil, &PanicError{Index: part, Value: p, Stack: debug.Stack()})
				}
				c.wg.Done()
			}()
			c.work(&part)
		}()
	}
}

// work runs parts until none are left, the one running in *part.
func (c *crew) work(part *int) {
	for *part = int(c.next.Add(1) - 1); *part < c.parts; *part = int(c.next.Add(1) - 1) {
		c.job.Run(*part)
	}
}

// join waits for the helpers, drops the job (a parked crew must not keep
// its owner's memory reachable) and re-raises a helper's panic.
func (c *crew) join() {
	c.wg.Wait()
	c.job = nil
	if f := c.failed.Swap(nil); f != nil {
		panic(f)
	}
}
