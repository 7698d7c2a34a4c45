package resilience

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for breaker timing.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker() (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	return NewBreaker(clk.now), clk
}

// trip opens a closed breaker with the threshold's consecutive failures.
func trip(t *testing.T, b *Breaker) {
	t.Helper()
	for i := 0; i < breakerThreshold; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected call %d: %v", i, err)
		}
		b.Record(errors.New("boom"))
	}
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after %d consecutive failures = %v", breakerThreshold, st)
	}
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	b, _ := newTestBreaker()
	boom := errors.New("boom")
	for i := 0; i < breakerThreshold-1; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal(err)
		}
		b.Record(boom)
	}
	// A success resets the streak.
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(nil)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after a reset streak = %v", st)
	}
	trip(t, b)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker allowed a call: %v", err)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	b, clk := newTestBreaker()
	trip(t, b)
	clk.advance(DefaultCooldown - time.Nanosecond)
	if b.State() != BreakerOpen {
		t.Fatal("half-open before the cooldown elapsed")
	}
	clk.advance(time.Nanosecond)
	if b.State() != BreakerHalfOpen {
		t.Fatal("not half-open after cooldown")
	}
	// One probe slot; a second concurrent call is rejected.
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second concurrent probe allowed: %v", err)
	}
	b.Record(nil)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after a probe success = %v", st)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, clk := newTestBreaker()
	trip(t, b)
	clk.advance(DefaultCooldown)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(errors.New("still broken"))
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v", st)
	}
	// The fresh open period starts at the probe failure.
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("reopened breaker allowed a call: %v", err)
	}
}

func TestBreakerForgiveReleasesProbeSlot(t *testing.T) {
	b, clk := newTestBreaker()
	trip(t, b)
	clk.advance(DefaultCooldown)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	// The probe was canceled client-side: no verdict, slot returned.
	b.Forgive()
	if err := b.Allow(); err != nil {
		t.Fatalf("forgiven probe slot not released: %v", err)
	}
	b.Record(nil)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after successful probe = %v", st)
	}
}

func TestBreakerDefaults(t *testing.T) {
	if breakerThreshold != 5 || DefaultCooldown != 2*time.Second {
		t.Fatalf("policy = %d failures, %v cooldown; want 5 and 2s", breakerThreshold, DefaultCooldown)
	}
	if b := NewBreaker(nil); b.now == nil || b.State() != BreakerClosed {
		t.Fatalf("NewBreaker(nil) = %+v, want a closed breaker on the wall clock", b)
	}
	states := []BreakerState{BreakerClosed, BreakerOpen, BreakerHalfOpen, BreakerState(99)}
	want := []string{"closed", "open", "half-open", "unknown"}
	for i, s := range states {
		if s.String() != want[i] {
			t.Fatalf("State(%d).String() = %q", i, s.String())
		}
	}
}
