package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Backoff is a bounded-retry policy with capped exponential backoff: the
// wait before the second attempt is 10ms, and each later wait doubles, up
// to 1s.  The zero value makes 3 attempts.
type Backoff struct {
	// Attempts is the total number of tries (first call included); values
	// below 1 select 3.
	Attempts int
	// sleep is the test hook for the inter-attempt wait.
	sleep func(ctx context.Context, d time.Duration) error
}

const (
	backoffInitial = 10 * time.Millisecond
	backoffMax     = time.Second
)

func (b Backoff) withDefaults() Backoff {
	if b.Attempts < 1 {
		b.Attempts = 3
	}
	if b.sleep == nil {
		b.sleep = sleepCtx
	}
	return b
}

// delay returns the wait before attempt n+1 (n is the 0-based attempt
// that just failed).
func delay(n int) time.Duration {
	d := backoffInitial
	for i := 0; i < n && d < backoffMax; i++ {
		d *= 2
	}
	return min(d, backoffMax)
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps an error so Retry stops immediately instead of burning
// the remaining attempts (e.g. a validation failure that cannot succeed
// on retry).  A nil error stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Retry runs fn until it succeeds, returns a Permanent error, exhausts
// the attempt budget, or ctx is done.  The error of the last attempt is
// returned (annotated with the attempt count when every attempt failed);
// ctx expiry during a backoff wait returns ctx's error.
func Retry(ctx context.Context, b Backoff, fn func(ctx context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	b = b.withDefaults()
	var last error
	for attempt := 0; attempt < b.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if last != nil {
				return fmt.Errorf("resilience: retry canceled after %d attempts (%v): %w", attempt, err, last)
			}
			return err
		}
		err := fn(ctx)
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		last = err
		if attempt == b.Attempts-1 {
			break
		}
		if err := b.sleep(ctx, delay(attempt)); err != nil {
			return fmt.Errorf("resilience: retry canceled after %d attempts (%v): %w", attempt+1, err, last)
		}
	}
	if b.Attempts == 1 {
		return last
	}
	return fmt.Errorf("resilience: %d attempts failed: %w", b.Attempts, last)
}

// sleepCtx waits d, returning early with ctx's error if ctx is done
// first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
