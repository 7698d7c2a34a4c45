package tango

import (
	"context"
	"testing"
)

// TestParsePriority checks the wire-name round trip and that unknown names
// degrade to the default class.
func TestParsePriority(t *testing.T) {
	for _, p := range []Priority{PriorityLow, PriorityNormal, PriorityHigh} {
		if got := parsePriority(p.String()); got != p {
			t.Errorf("parsePriority(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if got := parsePriority("urgent!!"); got != PriorityNormal {
		t.Errorf("parsePriority(unknown) = %v, want normal", got)
	}
	ctx := WithPriority(context.Background(), PriorityHigh)
	if got := priorityFromContext(ctx); got != PriorityHigh {
		t.Errorf("priorityFromContext = %v, want high", got)
	}
	if got := priorityFromContext(context.Background()); got != PriorityNormal {
		t.Errorf("priorityFromContext(default) = %v, want normal", got)
	}
}
