package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tango"
)

// serveCifarNet mounts an in-process CifarNet server, optionally wrapped,
// on an httptest listener and returns its base URL.
func serveCifarNet(t *testing.T, srv *tango.Server, wrap func(http.Handler) http.Handler) string {
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// flipLowBit answers every classify request with the server's own result,
// except that the first probability's lowest mantissa bit is flipped.
func flipLowBit(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/classify" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp classifyResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			http.Error(w, "unexpected upstream response", http.StatusBadGateway)
			return
		}
		resp.Probabilities[0] = math.Float32frombits(math.Float32bits(resp.Probabilities[0]) ^ 1)
		json.NewEncoder(w).Encode(resp)
	})
}

// shedEveryThird answers every third classify request with a 503.
func shedEveryThird(h http.Handler) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/classify" && n.Add(1)%3 == 0 {
			http.Error(w, "degraded", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
}

func hasFailure(failures []string, substr string) bool {
	for _, f := range failures {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}

// TestRunProfiles runs the load loop in process against a reference
// CifarNet server: steady passes and engages batching, a one-bit change to
// a served probability fails steady as a mismatch but sits within the
// fast-tier tolerance, and shed requests fail steady while a timed ramp
// tolerates them.
func TestRunProfiles(t *testing.T) {
	srv, err := tango.NewServer([]string{"CifarNet"}, tango.ServerConfig{
		MaxBatch: 16, MaxDelay: 5 * time.Millisecond, Numerics: "reference",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	steady := config{
		baseURL: serveCifarNet(t, srv, nil), benchmark: "CifarNet", profile: "steady",
		requests: 32, concurrency: 8, seed: 1, local: tango.WithReferenceNumerics(), minMeanBatch: 1,
	}

	if f := run(steady); len(f) > 0 {
		t.Fatalf("steady against a reference server failed: %q", f)
	}
	if st := srv.Stats(); st.MeanBatchSize <= 1 {
		t.Errorf("steady left mean batch %.2f: batching never engaged", st.MeanBatchSize)
	}

	flipped := steady
	flipped.baseURL = serveCifarNet(t, srv, flipLowBit)
	if f := run(flipped); !hasFailure(f, "mismatch") {
		t.Errorf("steady against a one-bit-off server: failures %q, want mismatches", f)
	}
	flipped.tol = fastTol
	if f := run(flipped); len(f) > 0 {
		t.Errorf("steady against a one-bit-off server at the fast-tier tolerance failed: %q", f)
	}

	shed := steady
	shed.baseURL = serveCifarNet(t, srv, shedEveryThird)
	if f := run(shed); !hasFailure(f, "shed") {
		t.Errorf("steady against a shedding server: failures %q, want shed outcomes", f)
	}
	shed.profile, shed.duration, shed.concurrency = "ramp", 300*time.Millisecond, 4
	if f := run(shed); len(f) > 0 {
		t.Errorf("ramp against a shedding server failed: %q", f)
	}
}

func TestAllowedWorkers(t *testing.T) {
	for _, c := range []struct {
		profile string
		frac    float64
		n, want int
	}{
		{"ramp", 0, 9, 1},
		{"ramp", 0.5, 9, 5},
		{"ramp", 0.999, 9, 8},
		{"ramp", 0.5, 1, 1},
		{"spike", 0.1, 8, 2},
		{"spike", 0.4, 8, 8},
		{"spike", 0.59, 8, 8},
		{"spike", 0.6, 8, 2},
		{"spike", 0.1, 3, 1},
		{"chaos", 0.5, 8, 8},
		{"no-such-profile", 0.5, 8, 8},
	} {
		if got := allowedWorkers(c.profile, c.frac, c.n); got != c.want {
			t.Errorf("allowedWorkers(%q, %v, %d) = %d, want %d", c.profile, c.frac, c.n, got, c.want)
		}
	}
}

// TestUsage holds the flag checks main makes before it starts or waits for
// a server: a steady run of fewer than one request (which panicked in
// sampleSet) or any run with fewer than one worker is a usage error, and a
// timed profile ignores -requests.
func TestUsage(t *testing.T) {
	for _, c := range []struct {
		cfg config
		ok  bool
	}{
		{config{profile: "steady", requests: 96, concurrency: 16}, true},
		{config{profile: "steady", requests: 1, concurrency: 1}, true},
		{config{profile: "ramp", requests: -1, concurrency: 4}, true},
		{config{profile: "steady", requests: -1, concurrency: 16}, false},
		{config{profile: "steady", requests: 0, concurrency: 16}, false},
		{config{profile: "steady", requests: 96, concurrency: 0}, false},
		{config{profile: "chaos", concurrency: -2}, false},
		{config{profile: "no-such-profile", requests: 96, concurrency: 16}, false},
	} {
		if err := c.cfg.usage(); (err == nil) != c.ok {
			t.Errorf("%s -requests %d -concurrency %d: usage() = %v, want ok=%v",
				c.cfg.profile, c.cfg.requests, c.cfg.concurrency, err, c.ok)
		}
	}
}
