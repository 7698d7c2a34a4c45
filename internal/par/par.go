// Package par provides the deterministic worker-pool primitive shared by the
// simulator's kernel-level parallelism and the experiment drivers' matrix
// fan-out, the allocation-free fork-join Team the compute engine runs on,
// and the goroutine-leak check helper used by concurrency tests across the
// repo.
package par

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"tango/internal/resilience"
)

// PointTask is the fault-injection site fired before every worker task; a
// chaos plan can make any fan-out (sweep cells, kernel simulations, figure
// prewarms) fail, stall or panic.  The compute engine's forks run on a Team
// and are not PointTask sites.
var PointTask = resilience.Register("par.task", "before each worker-pool task (ForEach / ForEachCtx)")

// PanicError is a panic recovered from a worker task, converted to an
// error so one panicking task fails its own slot instead of killing the
// process (the pool's goroutines have no recovery above them).
type PanicError struct {
	// Index is the task index that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// ForEach runs fn(i) for every i in [0, n) and returns the first error in
// index order, regardless of completion order — so callers see the same
// error a serial loop would report.  With workers <= 1 the calls run
// serially (short-circuiting on the first error); otherwise they are fanned
// out across min(workers, n) goroutines.  fn must be safe for concurrent
// invocation when workers > 1.  A panicking task is recovered into a
// *PanicError for its slot; it never crashes the process.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach bounded by a context: once ctx is done, no new
// tasks are started and the call returns promptly — after only the tasks
// already in flight finish (workers are never killed mid-task).  When the
// run was cut short by ctx, the first task error in index order still
// wins; ctx's error is returned only if every completed task succeeded.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := protect(i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = protect(i, fn)
			}
		}()
	}
	done := ctx.Done() // nil for Background: the select arm never fires
dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-done:
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// protect runs one task, converting a panic into a *PanicError and giving
// the fault-injection plan its shot first.
func protect(i int, fn func(int) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Index: i, Value: p, Stack: debug.Stack()}
		}
	}()
	if err := resilience.Fire(PointTask); err != nil {
		return err
	}
	return fn(i)
}
