package resilience

import (
	"context"
	"time"
)

// WithBudget bounds ctx to at most d from now.  An existing earlier
// deadline is kept (the tighter budget wins), so a server-wide request
// timeout composes with per-call client deadlines.  d <= 0 returns ctx
// unchanged with a no-op cancel, so the zero policy costs nothing.
func WithBudget(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}
