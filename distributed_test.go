package tango

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"tango/internal/coord"
	"tango/internal/target"
)

// startWorkers launches n coord workers, each with its own isolated store
// (so the cells demonstrably run worker-side), and returns their URLs.
func startWorkers(t *testing.T, n int) ([]string, []*coord.Worker) {
	t.Helper()
	addrs := make([]string, n)
	ws := make([]*coord.Worker, n)
	for i := 0; i < n; i++ {
		w := coord.NewWorker(coord.WorkerConfig{
			Store:       target.NewStore(),
			Parallelism: 2,
		})
		srv := httptest.NewServer(w)
		t.Cleanup(func() { srv.Close(); w.Close() })
		addrs[i] = srv.URL
		ws[i] = w
	}
	return addrs, ws
}

// TestSweepDistributedByteIdentical is the sharding acceptance test: a
// 2-worker coordinator sweep merges to exactly the dataset a
// single-process sweep of the same cells produces.
func TestSweepDistributedByteIdentical(t *testing.T) {
	cfg := SweepConfig{
		Networks:     []string{"GRU", "CifarNet"},
		Targets:      []string{"gp102"},
		FastSampling: true,
	}
	local, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}

	addrs, workers := startWorkers(t, 2)
	dcfg := cfg
	dcfg.Workers = addrs
	dcfg.CacheDir = t.TempDir() // private cold store: every cell must travel
	var stats CacheStats
	dcfg.CacheStats = &stats
	dist, err := Sweep(dcfg)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := dist.CSV(), local.CSV(); got != want {
		t.Fatalf("distributed CSV differs from single-process CSV:\n%s\nvs\n%s", got, want)
	}
	if !reflect.DeepEqual(dist.Records, local.Records) {
		t.Fatalf("distributed records differ:\n%+v\nvs\n%+v", dist.Records, local.Records)
	}
	if stats.Computes != 0 {
		t.Fatalf("coordinator computed %d cells locally, want 0 (healthy workers)", stats.Computes)
	}
	var remote int64
	for _, w := range workers {
		remote += w.Store().Stats().Computes
	}
	if remote != int64(len(dist.Records)) {
		t.Fatalf("workers computed %d cells for %d records", remote, len(dist.Records))
	}
	for i, w := range workers {
		if w.Store().Stats().Computes == 0 {
			t.Fatalf("worker %d got no cells; sharding is not spreading work", i)
		}
	}
}

// TestSweepDistributedFallsBackToLocal: a sweep pointed at a dead worker
// still produces the full, correct dataset by computing the failed cells
// locally.
func TestSweepDistributedFallsBackToLocal(t *testing.T) {
	cfg := SweepConfig{
		Networks:     []string{"GRU"},
		Targets:      []string{"gp102"},
		FastSampling: true,
	}
	local, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dcfg := cfg
	dcfg.Workers = []string{"127.0.0.1:1"} // nothing listens here
	dcfg.CacheDir = t.TempDir()
	var stats CacheStats
	dcfg.CacheStats = &stats
	dist, err := Sweep(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dist.CSV(), local.CSV(); got != want {
		t.Fatalf("fallback CSV differs from single-process CSV:\n%s\nvs\n%s", got, want)
	}
	if stats.Computes != int64(len(dist.Records)) {
		t.Fatalf("dead-worker sweep computed %d cells locally for %d records", stats.Computes, len(dist.Records))
	}
	for _, r := range dist.Records {
		if r.Err != "" || !strings.EqualFold(r.Network, "GRU") {
			t.Fatalf("fallback record carries an error or wrong identity: %+v", r)
		}
	}
}
