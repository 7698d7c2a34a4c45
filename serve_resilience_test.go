package tango_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tango"
	"tango/internal/resilience"
)

// TestServerBreakerDegradedAndDraining walks one server through the full
// tri-state health lifecycle: healthy, then degraded once injected engine
// failures trip the circuit breaker (requests fail fast with ErrDegraded,
// /healthz still answers 200 — degraded is not dead), then draining after
// Close (/healthz answers 503).
func TestServerBreakerDegradedAndDraining(t *testing.T) {
	srv, err := tango.NewServer([]string{"LSTM"}, tango.ServerConfig{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tango.SetBreakerCooldown(srv, time.Hour) // never half-open within the test
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx := context.Background()
	history := []float64{0.5, 0.6, 0.7}
	if _, err := srv.Forecast(ctx, "LSTM", history); err != nil {
		t.Fatal(err)
	}
	if rep := srv.Health(); rep.Status != tango.HealthHealthy {
		t.Fatalf("health before faults = %+v, want healthy", rep)
	}

	// Fail every batch run (including bisection singletons): each request
	// resolves as an engine failure and counts against the breaker.
	if err := resilience.Enable("serve.batch.run=error:1", 1); err != nil {
		t.Fatal(err)
	}
	defer resilience.Disable()
	var lastErr error
	for i := 0; i < 5; i++ { // the default threshold
		if _, lastErr = srv.Forecast(ctx, "LSTM", history); lastErr == nil {
			t.Fatalf("request %d succeeded under error:1 injection", i)
		}
	}
	if !errors.Is(lastErr, tango.ErrInjected) {
		t.Fatalf("injected failure = %v, want wrapped ErrInjected", lastErr)
	}

	// Threshold reached: the breaker is open, requests fail fast without
	// touching the (still-failing) engine.
	if _, err := srv.Forecast(ctx, "LSTM", history); !errors.Is(err, tango.ErrDegraded) {
		t.Fatalf("post-trip error = %v, want wrapped ErrDegraded", err)
	}
	rep := srv.Health()
	if rep.Status != tango.HealthDegraded || len(rep.Reasons) == 0 {
		t.Fatalf("health after trip = %+v, want degraded with reasons", rep)
	}
	st := srv.Stats()
	if st.Benchmarks["LSTM"].BreakerState != "open" {
		t.Fatalf("breaker state = %q, want open", st.Benchmarks["LSTM"].BreakerState)
	}
	if st.Shed == 0 {
		t.Fatalf("stats after trip = %+v, want Shed > 0", st)
	}

	// Over HTTP the rejection is a 503 whose Retry-After is the breaker
	// cooldown, 2 s.
	resp, err := http.Post(ts.URL+"/v1/forecast", "application/json",
		strings.NewReader(`{"benchmark":"LSTM","history":[0.5,0.6,0.7]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("degraded forecast: status %d, Retry-After %q; want 503 and 2",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Degraded, not dead: /healthz still answers 200.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz status = %d, want 200", resp.StatusCode)
	}

	srv.Close()
	if rep := srv.Health(); rep.Status != tango.HealthDraining {
		t.Fatalf("health after Close = %+v, want draining", rep)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", resp.StatusCode)
	}
}

// TestServerPrioritySheddingOrder checks the admission thresholds: with
// the queue at 50-75% occupancy, low priority is shed with a wrapped
// ErrQueueFull while normal priority still proceeds.
func TestServerPrioritySheddingOrder(t *testing.T) {
	srv, err := tango.NewServer([]string{"LSTM"}, tango.ServerConfig{
		MaxBatch:   1,
		QueueDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Stall every batch run so submitted requests pile up in the queue at
	// a known occupancy instead of draining as fast as we submit.
	if err := resilience.Enable("serve.batch.run=latency:1:700ms", 1); err != nil {
		t.Fatal(err)
	}
	defer resilience.Disable()

	history := []float64{0.5, 0.6, 0.7}
	results := make(chan error, 8)
	submit := func(ctx context.Context) {
		go func() {
			_, err := srv.Forecast(ctx, "LSTM", history)
			results <- err
		}()
	}
	// Three admitted requests: one stalled in its batch run, two waiting in
	// the depth-4 queue — 50% occupancy, right at the low-priority
	// threshold and far below the normal one (90%).
	ctx := context.Background()
	submit(ctx)
	submit(ctx)
	submit(ctx)
	deadline := time.After(5 * time.Second)
	for srv.Stats().InFlight < 3 {
		select {
		case <-deadline:
			t.Fatal("submitted requests never became visible")
		case <-time.After(time.Millisecond):
		}
	}

	_, lowErr := srv.Forecast(tango.WithPriority(ctx, tango.PriorityLow), "LSTM", history)
	if !errors.Is(lowErr, tango.ErrQueueFull) {
		t.Fatalf("low-priority error = %v, want wrapped ErrQueueFull", lowErr)
	}
	if st := srv.Stats(); st.Benchmarks["LSTM"].ShedLoad == 0 {
		t.Fatalf("stats after low shed = %+v, want ShedLoad > 0", st.Benchmarks["LSTM"])
	}
	// Normal priority is still admitted at this occupancy; stop stalling
	// so the queue drains promptly.
	submit(ctx)
	resilience.Disable()
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	// With the queue idle again, low priority is admitted normally.
	if _, err := srv.Forecast(tango.WithPriority(ctx, tango.PriorityLow), "LSTM", history); err != nil {
		t.Fatalf("low priority on idle queue: %v", err)
	}
}
