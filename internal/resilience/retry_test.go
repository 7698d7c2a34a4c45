package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

// instantSleep records requested delays without sleeping.
func instantSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	var delays []time.Duration
	b := Backoff{Attempts: 10, sleep: instantSleep(&delays)}
	calls := 0
	err := Retry(context.Background(), b, func(context.Context) error {
		calls++
		if calls < 9 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 9 {
		t.Fatalf("Retry = %v after %d calls", err, calls)
	}
	// Exponential from 10ms, capped at 1s.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 160 * time.Millisecond, 320 * time.Millisecond, 640 * time.Millisecond,
		time.Second}
	if len(delays) != len(want) {
		t.Fatalf("delays = %v, want %v", delays, want)
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("delays = %v, want %v", delays, want)
		}
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	var delays []time.Duration
	boom := errors.New("boom")
	calls := 0
	err := Retry(context.Background(), Backoff{Attempts: 3, sleep: instantSleep(&delays)},
		func(context.Context) error { calls++; return boom })
	if calls != 3 || !errors.Is(err, boom) {
		t.Fatalf("Retry = %v after %d calls, want wrapped boom after 3", err, calls)
	}
}

func TestRetryPermanentStopsImmediately(t *testing.T) {
	fatal := errors.New("fatal")
	calls := 0
	err := Retry(context.Background(), Backoff{Attempts: 5},
		func(context.Context) error { calls++; return Permanent(fatal) })
	if calls != 1 || !errors.Is(err, fatal) {
		t.Fatalf("Retry = %v after %d calls, want fatal after 1", err, calls)
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, Backoff{Attempts: 5}, func(context.Context) error { calls++; return errors.New("x") })
	if calls != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Retry = %v after %d calls", err, calls)
	}

	// Cancel during the backoff wait: the last attempt's error is kept.
	ctx2, cancel2 := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err = Retry(ctx2, Backoff{Attempts: 5, sleep: func(ctx context.Context, d time.Duration) error {
		cancel2()
		return context.Canceled
	}}, func(context.Context) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("canceled-in-backoff Retry = %v, want wrapped boom", err)
	}
}

func TestWithBudget(t *testing.T) {
	ctx, cancel := WithBudget(context.Background(), 50*time.Millisecond)
	defer cancel()
	dl, ok := ctx.Deadline()
	if left := time.Until(dl); !ok || left <= 0 || left > 50*time.Millisecond {
		t.Fatalf("deadline in %v (set %v)", left, ok)
	}

	// A tighter existing deadline wins.
	tight, cancelTight := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancelTight()
	ctx2, cancel2 := WithBudget(tight, time.Hour)
	defer cancel2()
	if dl, _ := ctx2.Deadline(); time.Until(dl) > 10*time.Millisecond {
		t.Fatalf("budget loosened an existing deadline: %v", time.Until(dl))
	}

	// Zero budget: unchanged context, no deadline.
	ctx3, cancel3 := WithBudget(context.Background(), 0)
	defer cancel3()
	if _, ok := ctx3.Deadline(); ctx3 != context.Background() || ok {
		t.Fatal("zero budget must leave ctx unchanged")
	}

	// An expired deadline stays expired.
	past, cancelPast := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelPast()
	ctx4, cancel4 := WithBudget(past, time.Minute)
	defer cancel4()
	if dl, _ := ctx4.Deadline(); ctx4 != past || time.Until(dl) > 0 {
		t.Fatalf("budget revived an expired deadline: %v left", time.Until(dl))
	}
}
