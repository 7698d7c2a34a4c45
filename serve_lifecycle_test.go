package tango_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tango"
)

// TestServerOnDemandLoading checks that ServerConfig.OnDemand defers engine
// loads to first use: construction validates names without loading, the
// first request loads exactly its model, and untouched models stay cold.
func TestServerOnDemandLoading(t *testing.T) {
	srv, err := tango.NewServer([]string{"GRU", "LSTM"}, tango.ServerConfig{OnDemand: true, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	st := srv.Stats()
	if st.ResidentModels != 0 {
		t.Fatalf("cold server has %d resident models, want 0", st.ResidentModels)
	}
	for name, b := range st.Benchmarks {
		if b.Resident || b.Loads != 0 {
			t.Fatalf("%s loaded before any request: %+v", name, b)
		}
	}

	history := []float64{0.4, 0.5, 0.6}
	if _, err := srv.Forecast(context.Background(), "GRU", history); err != nil {
		t.Fatal(err)
	}
	st = srv.Stats()
	if g := st.Benchmarks["GRU"]; !g.Resident || g.Loads != 1 || g.ResidentBytes <= 0 {
		t.Fatalf("GRU after first request: %+v", g)
	}
	if l := st.Benchmarks["LSTM"]; l.Resident || l.Loads != 0 {
		t.Fatalf("LSTM loaded without a request: %+v", l)
	}
	if st.ResidentModels != 1 || st.ResidentBytes != st.Benchmarks["GRU"].ResidentBytes {
		t.Fatalf("server residency: %+v", st)
	}

	// Unknown names still fail fast at construction, before any load.
	if _, err := tango.NewServer([]string{"NoSuchNet"}, tango.ServerConfig{OnDemand: true}); err == nil {
		t.Fatal("NewServer accepted an unknown benchmark under on-demand loading")
	}
}

// TestServerModelBudgetEviction checks the LRU lifecycle: a budget too small
// for two engines evicts the least-recently-used idle model when the second
// loads, the evicted model's counters survive, and its next request reloads
// it transparently.
func TestServerModelBudgetEviction(t *testing.T) {
	// A 1-byte budget forces every load over budget, so loading any second
	// model must evict the idle first one.
	srv, err := tango.NewServer([]string{"GRU", "LSTM"}, tango.ServerConfig{ModelBudgetBytes: 1, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	history := []float64{0.4, 0.5, 0.6}
	if _, err := srv.Forecast(ctx, "GRU", history); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); !st.Benchmarks["GRU"].Resident {
		t.Fatalf("GRU not resident after request: %+v", st.Benchmarks["GRU"])
	}

	if _, err := srv.Forecast(ctx, "LSTM", history); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if g := st.Benchmarks["GRU"]; g.Resident || g.Evictions != 1 {
		t.Fatalf("GRU should be evicted by LSTM load: %+v", g)
	}
	if l := st.Benchmarks["LSTM"]; !l.Resident {
		t.Fatalf("LSTM not resident: %+v", l)
	}
	// Lifetime counters survive the eviction.
	if g := st.Benchmarks["GRU"]; g.Submitted != 1 || g.Completed != 1 {
		t.Fatalf("GRU counters lost across eviction: %+v", g)
	}

	// The evicted model reloads transparently on its next request, evicting
	// LSTM in turn, and its counters keep accumulating.
	if _, err := srv.Forecast(ctx, "GRU", history); err != nil {
		t.Fatalf("request to evicted model: %v", err)
	}
	st = srv.Stats()
	g := st.Benchmarks["GRU"]
	if !g.Resident || g.Loads != 2 || g.Submitted != 2 || g.Completed != 2 {
		t.Fatalf("GRU after reload: %+v", g)
	}
	if l := st.Benchmarks["LSTM"]; l.Resident || l.Evictions != 1 {
		t.Fatalf("LSTM should be evicted by GRU reload: %+v", l)
	}
	if st.ResidentModels != 1 {
		t.Fatalf("resident models = %d, want 1", st.ResidentModels)
	}
}

// TestServerConfigApplied checks that ServerConfig fields reach the running
// server: the tier and SLO show in Stats, QueueDepth is the queue capacity and
// MaxBatch sizes the batch histogram.
func TestServerConfigApplied(t *testing.T) {
	srv, err := tango.NewServer([]string{"GRU"}, tango.ServerConfig{
		MaxBatch:   4,
		QueueDepth: 8,
		TargetP99:  time.Second,
		Numerics:   "reference",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st := srv.Stats()
	if st.NumericsTier != "reference" {
		t.Fatalf("numerics tier = %q", st.NumericsTier)
	}
	if st.TargetP99Micros != 1e6 {
		t.Fatalf("target p99 = %v us, want 1e6", st.TargetP99Micros)
	}
	if got := st.Benchmarks["GRU"].QueueCap; got != 8 {
		t.Fatalf("queue cap = %d, want QueueDepth 8", got)
	}
	if _, err := srv.Forecast(context.Background(), "GRU", []float64{0.1, 0.2}); err != nil {
		t.Fatal(err)
	}
	if hist := srv.Stats().Benchmarks["GRU"].BatchSizeHist; len(hist) != 4 {
		t.Fatalf("batch hist len %d, want MaxBatch 4", len(hist))
	}
}

// TestServerReportsResolvedNumericsTier checks that Stats and /metrics name
// the tier the batches actually run on: the TANGO_NUMERICS default when the
// config leaves Numerics empty, and the canonical spelling of an alias.
func TestServerReportsResolvedNumericsTier(t *testing.T) {
	for _, tc := range []struct{ env, cfg, want string }{
		{env: "fast", cfg: "", want: "fast"},
		{env: "fast", cfg: "ref", want: "reference"},
		{env: "", cfg: "fastmath", want: "fast"},
		{env: "", cfg: "", want: "reference"},
	} {
		t.Setenv("TANGO_NUMERICS", tc.env)
		srv, err := tango.NewServer([]string{"GRU"}, tango.ServerConfig{Numerics: tc.cfg, OnDemand: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.Stats().NumericsTier; got != tc.want {
			t.Errorf("env %q config %q: Stats tier = %q, want %q", tc.env, tc.cfg, got, tc.want)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if line := `tango_server_info{numerics="` + tc.want + `"} 1`; !strings.Contains(rec.Body.String(), line) {
			t.Errorf("env %q config %q: /metrics lacks %s", tc.env, tc.cfg, line)
		}
		srv.Close()
	}

	// An unparsable tier fails construction with the same wrapped error
	// whether it came from the config or the environment.
	_, cfgErr := tango.NewServer([]string{"GRU"}, tango.ServerConfig{Numerics: "bf16"})
	t.Setenv("TANGO_NUMERICS", "bf16")
	_, envErr := tango.NewServer([]string{"GRU"}, tango.ServerConfig{})
	if cfgErr == nil || envErr == nil || cfgErr.Error() != envErr.Error() {
		t.Fatalf("config error %v, environment error %v: want the same non-nil error", cfgErr, envErr)
	}
}

// TestServerPrewarmSizesScratch checks that loading a model grows its scratch
// to the configured batch geometry: ScratchBytes is non-zero right after
// NewServer and does not move when a burst of MaxBatch concurrent requests
// arrives.
func TestServerPrewarmSizesScratch(t *testing.T) {
	const maxBatch = 8
	srv, err := tango.NewServer([]string{"CifarNet", "LSTM"}, tango.ServerConfig{MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	warm := srv.Stats().Benchmarks
	for _, name := range []string{"CifarNet", "LSTM"} {
		if warm[name].ScratchBytes == 0 {
			t.Fatalf("%s: ScratchBytes 0 after NewServer: the load did not prewarm", name)
		}
	}

	cifar, err := tango.LoadBenchmark("CifarNet")
	if err != nil {
		t.Fatal(err)
	}
	lstm, err := tango.LoadBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*maxBatch)
	for i := 0; i < maxBatch; i++ {
		img, _, err := cifar.SampleImage(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		hist, err := lstm.SampleHistory(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, err := srv.Classify(context.Background(), "CifarNet", img)
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := srv.Forecast(context.Background(), "LSTM", hist)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	after := srv.Stats().Benchmarks
	for _, name := range []string{"CifarNet", "LSTM"} {
		if after[name].ScratchBytes != warm[name].ScratchBytes {
			t.Errorf("%s: ScratchBytes %d after a burst of %d, %d after NewServer: the prewarm did not size the scratch",
				name, after[name].ScratchBytes, maxBatch, warm[name].ScratchBytes)
		}
	}
}
