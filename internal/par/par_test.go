package par_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tango/internal/par"
)

func TestForEachRunsEveryIndex(t *testing.T) {
	defer par.CheckLeaks()(t)
	for _, workers := range []int{0, 1, 4, 100} {
		var ran [17]int32
		if err := par.ForEach(workers, len(ran), func(i int) error {
			atomic.AddInt32(&ran[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range ran {
			if c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachReportsFirstErrorInIndexOrder(t *testing.T) {
	defer par.CheckLeaks()(t)
	for _, workers := range []int{1, 4} {
		err := par.ForEach(workers, 10, func(i int) error {
			if i == 3 || i == 7 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Errorf("workers=%d: err = %v, want job 3's error", workers, err)
		}
	}
}

func TestForEachSerialShortCircuits(t *testing.T) {
	var calls int
	boom := errors.New("boom")
	err := par.ForEach(1, 10, func(i int) error {
		calls++
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Errorf("serial run made %d calls after error at index 2, want 3", calls)
	}
}

func TestForEachZeroJobs(t *testing.T) {
	if err := par.ForEach(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0 should be a no-op, got %v", err)
	}
}

func TestForEachRecoversPanics(t *testing.T) {
	defer par.CheckLeaks()(t)
	for _, workers := range []int{1, 4} {
		err := par.ForEach(workers, 8, func(i int) error {
			if i == 5 {
				panic("kernel bug")
			}
			return nil
		})
		var pe *par.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 5 || pe.Value != "kernel bug" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError = index %d value %v (stack %d bytes)",
				workers, pe.Index, pe.Value, len(pe.Stack))
		}
	}
}

func TestForEachPanicLosesToEarlierError(t *testing.T) {
	defer par.CheckLeaks()(t)
	// Index-order error semantics hold across failure kinds: the error at
	// index 2 beats the panic at index 6.
	err := par.ForEach(4, 8, func(i int) error {
		switch i {
		case 2:
			return errors.New("plain failure")
		case 6:
			panic("later panic")
		}
		return nil
	})
	if err == nil || err.Error() != "plain failure" {
		t.Fatalf("err = %v, want index 2's plain failure", err)
	}
}

func TestCheckLeaksDetectsLeak(t *testing.T) {
	// Goroutines that earlier tests released may still be exiting, and a
	// snapshot that counts them would hide the leak below.  Wait until the
	// count stops falling.
	for n := runtime.NumGoroutine(); ; {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			break
		}
		n = m
	}
	check := par.CheckLeaks()
	stop := make(chan struct{})
	go func() { <-stop }()
	var sink errorfRecorder
	check(&sink)
	close(stop)
	if !sink.called {
		t.Error("CheckLeaks missed a deliberately leaked goroutine")
	}
}

type errorfRecorder struct{ called bool }

func (r *errorfRecorder) Errorf(string, ...any) { r.called = true }
