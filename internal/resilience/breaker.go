package resilience

import (
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen is returned by Breaker.Allow while the breaker is open:
// the protected resource has failed repeatedly and calls are being shed
// until the cooldown elapses.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// BreakerState is the circuit breaker's tri-state.
type BreakerState int

const (
	// BreakerClosed: healthy, all calls pass.
	BreakerClosed BreakerState = iota
	// BreakerOpen: tripped, calls are rejected until the cooldown ends.
	BreakerOpen
	// BreakerHalfOpen: cooling down, a bounded number of probe calls are
	// let through to test recovery.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// The breaker's policy is fixed: it trips after breakerThreshold
// consecutive failures, stays open for DefaultCooldown, then admits one
// probe, whose success closes it and whose failure re-opens it.
const (
	breakerThreshold = 5
	DefaultCooldown  = 2 * time.Second
)

// Breaker is a consecutive-failure circuit breaker.  Callers pair each
// successful Allow with exactly one Record (verdict) or Forgive (no
// verdict — e.g. the caller was canceled before the protected call ran),
// so the half-open probe slot stays balanced.
type Breaker struct {
	now func() time.Time

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a probe is in flight while half-open
}

// NewBreaker returns a closed breaker reading the given clock (tests inject
// a fake); nil selects time.Now.
func NewBreaker(now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{now: now}
}

// Allow reports whether a call may proceed.  It returns nil when the
// breaker is closed, admits one probe at a time once the cooldown has
// elapsed (half-open), and returns ErrBreakerOpen otherwise.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < DefaultCooldown {
			return ErrBreakerOpen
		}
		b.state = BreakerHalfOpen
		b.probing = false
		fallthrough
	default: // half-open
		if b.probing {
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
}

// Record reports the outcome of an allowed call: nil resets the failure
// streak (and closes a half-open breaker); non-nil extends it (and
// re-opens a half-open breaker immediately).
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if err == nil {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= breakerThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.probing = false
		if err != nil {
			b.trip()
			return
		}
		b.state = BreakerClosed
		b.failures = 0
	default:
		// Open: a straggler from before the trip; the verdict is stale.
	}
}

// Forgive releases an allowed call without a verdict: the call never
// reached the protected resource (client cancellation, shed by a later
// admission stage), so it must neither extend nor reset failure streaks —
// but a half-open probe slot must be returned.
func (b *Breaker) Forgive() {
	b.mu.Lock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
	b.mu.Unlock()
}

// trip opens the breaker (caller holds mu).
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.probing = false
}

// State returns the breaker's current state, advancing open to half-open
// when the cooldown has elapsed so observers see the same state Allow
// would act on.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= DefaultCooldown {
		return BreakerHalfOpen
	}
	return b.state
}
