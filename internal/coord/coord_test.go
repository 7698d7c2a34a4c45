package coord_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"tango/internal/coord"
	"tango/internal/device"
	"tango/internal/gpusim"
	"tango/internal/target"
)

// fakeTarget is a cheap deterministic backend whose RunStats carry a GPU
// payload derived from the trace, so tests exercise the full wire
// encode/decode/relink path.
type fakeTarget struct {
	name string
	salt int64 // perturbs results so differently-configured fakes disagree
	runs atomic.Int64
}

func (f *fakeTarget) Name() string        { return f.name }
func (f *fakeTarget) Class() device.Class { return device.ClassGPU }
func (f *fakeTarget) Role() string        { return "Test" }
func (f *fakeTarget) Description() string { return "coord stub" }
func (f *fakeTarget) CacheKey(v Variant) string {
	return fmt.Sprintf("salt=%d|l1set=%v|l1=%d", f.salt, v.L1Set, v.L1Bytes)
}

// Variant aliases target.Variant for the method signature above.
type Variant = target.Variant

func (f *fakeTarget) Run(tr *target.Trace, v Variant) (*target.RunStats, error) {
	f.runs.Add(1)
	run := &gpusim.RunStats{Network: tr.Network}
	for i, k := range tr.Kernels {
		ks := &gpusim.KernelStats{
			Kernel:                  k,
			Cycles:                  f.salt + int64(100+i),
			Seconds:                 float64(i+1) * 0.25,
			TotalThreadInstructions: int64(1000 + i),
		}
		ks.OpCounts[0] = f.salt + int64(i)
		ks.Stalls[0] = int64(2 * i)
		run.Kernels = append(run.Kernels, ks)
	}
	return &target.RunStats{
		Network: tr.Network,
		Target:  f.name,
		Class:   device.ClassGPU,
		Cycles:  f.salt + 777,
		Seconds: 0.5,
		GPU:     run,
	}, nil
}

// newTestWorker wires a fake target into a private registry and serves it
// from an httptest server.
func newTestWorker(t *testing.T, salt int64) (*coord.Worker, *fakeTarget, *httptest.Server) {
	t.Helper()
	reg := target.NewRegistry()
	ft := &fakeTarget{name: "fake", salt: salt}
	if err := reg.Register(ft); err != nil {
		t.Fatal(err)
	}
	w := coord.NewWorker(coord.WorkerConfig{
		Registry:    reg,
		Store:       target.NewStore(),
		Parallelism: 2,
	})
	srv := httptest.NewServer(w)
	t.Cleanup(func() { srv.Close(); w.Close() })
	return w, ft, srv
}

// TestPoolFetchMatchesLocalRun: a cell fetched from a worker decodes to
// the same result a local run produces, kernels rebound to the
// coordinator's trace.
func TestPoolFetchMatchesLocalRun(t *testing.T) {
	_, ft, srv := newTestWorker(t, 0)
	pool, err := coord.NewPool([]string{srv.URL}, coord.PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := target.Extract("GRU")
	if err != nil {
		t.Fatal(err)
	}
	local := &fakeTarget{name: "fake", salt: 0}
	v := target.DefaultVariant(gpusim.FastSampling())

	got, err := pool.Fetch(context.Background(), 0, local, "GRU", v, tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Run(tr, v)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("remote result differs from local:\ngot  %+v\nwant %+v", got, want)
	}
	for i, ks := range got.GPU.Kernels {
		if ks.Kernel != tr.Kernels[i] {
			t.Fatalf("kernel %d not rebound to the coordinator's trace", i)
		}
	}
	if ft.runs.Load() != 1 {
		t.Fatalf("worker ran the cell %d times, want 1", ft.runs.Load())
	}

	// The worker's own store serves a repeat of the same cell from cache.
	if _, err := pool.Fetch(context.Background(), 0, local, "GRU", v, tr); err != nil {
		t.Fatal(err)
	}
	if ft.runs.Load() != 1 {
		t.Fatalf("worker recomputed a cached cell (%d runs)", ft.runs.Load())
	}
}

// TestPoolRejectsMismatchedBuilds: a coordinator whose target resolves a
// different cache key than the worker's same-named target must get an
// error, never a silently-wrong result.
func TestPoolRejectsMismatchedBuilds(t *testing.T) {
	_, _, srv := newTestWorker(t, 0)
	pool, err := coord.NewPool([]string{srv.URL}, coord.PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := target.Extract("GRU")
	if err != nil {
		t.Fatal(err)
	}
	// salt=9 changes the coordinator-side cache key; the worker recomputes
	// the key from its own salt=0 registry and refuses.
	skewed := &fakeTarget{name: "fake", salt: 9}
	_, err = pool.Fetch(context.Background(), 0, skewed, "GRU", target.DefaultVariant(gpusim.FastSampling()), tr)
	if err == nil || !strings.Contains(err.Error(), "key mismatch") {
		t.Fatalf("Fetch across mismatched builds = %v, want key mismatch error", err)
	}
}

// TestPoolUnknownTargetFails: the worker reports a target its registry
// cannot resolve; the coordinator falls back rather than hanging.
func TestPoolUnknownTargetFails(t *testing.T) {
	_, _, srv := newTestWorker(t, 0)
	pool, err := coord.NewPool([]string{srv.URL}, coord.PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := target.Extract("GRU")
	if err != nil {
		t.Fatal(err)
	}
	other := &fakeTarget{name: "unregistered"}
	if _, err := pool.Fetch(context.Background(), 0, other, "GRU", target.DefaultVariant(gpusim.FastSampling()), tr); err == nil {
		t.Fatal("unknown worker-side target must fail the fetch")
	}
}

// TestPoolDeadWorkerFailsFast: an unreachable worker yields an error (the
// sweep's local fallback path) and repeated failures trip the breaker so
// later cells shed the dead worker without a connect attempt.
func TestPoolDeadWorkerFailsFast(t *testing.T) {
	pool, err := coord.NewPool([]string{"127.0.0.1:1"}, coord.PoolConfig{Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := target.Extract("GRU")
	if err != nil {
		t.Fatal(err)
	}
	local := &fakeTarget{name: "fake"}
	v := target.DefaultVariant(gpusim.FastSampling())
	const threshold = 5 // the breaker's consecutive-failure policy
	for i := 0; i < threshold; i++ {
		if _, err := pool.Fetch(context.Background(), i, local, "GRU", v, tr); err == nil {
			t.Fatal("fetch from a dead worker must fail")
		}
	}
	_, err = pool.Fetch(context.Background(), threshold, local, "GRU", v, tr)
	if err == nil || !strings.Contains(err.Error(), "circuit breaker open") {
		t.Fatalf("tripped breaker should shed the call, got %v", err)
	}
}

// TestWorkerSheddingWhenQueueFull: a full worker queue answers 429 — the
// coordinator treats it as any other failure and computes locally.
func TestWorkerHTTPSurface(t *testing.T) {
	_, _, srv := newTestWorker(t, 0)

	resp, err := http.Get(srv.URL + coord.HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + coord.CellPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET cell = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+coord.CellPath, "application/json", strings.NewReader("{bad json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body = %d, want 400", resp.StatusCode)
	}
}
