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

// DefaultCooldown is how long an open breaker waits before probing when
// BreakerConfig.Cooldown is unset.
const DefaultCooldown = 2 * time.Second

// BreakerConfig tunes a Breaker.  The zero value trips after 5
// consecutive failures, cools down for DefaultCooldown, and closes again
// after 1 successful probe.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the breaker;
	// values below 1 select 5.
	Threshold int
	// Cooldown is how long the breaker stays open before probing; values
	// <= 0 select DefaultCooldown.
	Cooldown time.Duration
	// Probes is how many consecutive probe successes close a half-open
	// breaker (and how many concurrent probes are admitted); values below
	// 1 select 1.
	Probes int
	// Now is the clock (tests inject a fake); nil selects time.Now.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold < 1 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultCooldown
	}
	if c.Probes < 1 {
		c.Probes = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a consecutive-failure circuit breaker.  Callers pair each
// successful Allow with exactly one Record (verdict) or Forgive (no
// verdict — e.g. the caller was canceled before the protected call ran),
// so half-open probe accounting stays balanced.
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     BreakerState
	failures  int       // consecutive failures while closed
	openedAt  time.Time // when the breaker last opened
	probing   int       // in-flight probes while half-open
	probeWins int       // consecutive probe successes while half-open
}

// NewBreaker returns a closed breaker with the given policy.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a call may proceed.  It returns nil when the
// breaker is closed, admits up to Probes concurrent calls when the
// cooldown has elapsed (half-open), and returns ErrBreakerOpen otherwise.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return ErrBreakerOpen
		}
		b.state = BreakerHalfOpen
		b.probing = 0
		b.probeWins = 0
		fallthrough
	default: // half-open
		if b.probing >= b.cfg.Probes {
			return ErrBreakerOpen
		}
		b.probing++
		return nil
	}
}

// Record reports the outcome of an allowed call: nil resets the failure
// streak (and closes a half-open breaker once enough probes succeed);
// non-nil extends it (and re-opens a half-open breaker immediately).
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
		if b.failures >= b.cfg.Threshold {
			b.trip()
		}
	case BreakerHalfOpen:
		if b.probing > 0 {
			b.probing--
		}
		if err != nil {
			b.trip()
			return
		}
		b.probeWins++
		if b.probeWins >= b.cfg.Probes {
			b.state = BreakerClosed
			b.failures = 0
		}
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
	if b.state == BreakerHalfOpen && b.probing > 0 {
		b.probing--
	}
	b.mu.Unlock()
}

// trip opens the breaker (caller holds mu).
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.cfg.Now()
	b.failures = 0
	b.probing = 0
	b.probeWins = 0
}

// State returns the breaker's current state, advancing open to half-open
// when the cooldown has elapsed so observers see the same state Allow
// would act on.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return BreakerHalfOpen
	}
	return b.state
}
