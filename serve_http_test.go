package tango_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tango"
	"tango/internal/core"
	"tango/internal/serve"
)

// newHTTPServer mounts a tango.Server's Handler on an httptest server.
func newHTTPServer(t *testing.T) (*tango.Server, *httptest.Server) {
	t.Helper()
	srv, err := tango.NewServer([]string{"CifarNet", "LSTM"}, tango.ServerConfig{
		MaxBatch:   8,
		MaxDelay:   2 * time.Millisecond,
		QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postJSON posts a raw body and returns status + response bytes.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestHTTPClassify drives concurrent seed-based requests over real HTTP and
// bit-compares the responses against local per-sample Classify.
func TestHTTPClassify(t *testing.T) {
	srv, ts := newHTTPServer(t)
	b, err := tango.LoadBenchmark("CifarNet")
	if err != nil {
		t.Fatal(err)
	}

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := uint64(i + 1)
			status, data := postJSONQuiet(ts.URL+"/v1/classify",
				fmt.Sprintf(`{"benchmark":"CifarNet","seed":%d}`, seed))
			if status != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", status, data)
				return
			}
			var got struct {
				Class         int       `json:"class"`
				Probabilities []float32 `json:"probabilities"`
			}
			if err := json.Unmarshal(data, &got); err != nil {
				errs[i] = err
				return
			}
			img, _, err := b.SampleImage(seed)
			if err != nil {
				errs[i] = err
				return
			}
			want, err := b.Classify(img)
			if err != nil {
				errs[i] = err
				return
			}
			if got.Class != want.Class {
				errs[i] = fmt.Errorf("class %d, want %d", got.Class, want.Class)
				return
			}
			if tol := envProbTol(t); tol > 0 {
				if re := maxRelErr(got.Probabilities, want.Probabilities); re > tol {
					errs[i] = fmt.Errorf("relative error %.3g exceeds %.3g", re, tol)
				}
				return
			}
			for j := range got.Probabilities {
				if math.Float32bits(got.Probabilities[j]) != math.Float32bits(want.Probabilities[j]) {
					errs[i] = fmt.Errorf("prob %d: served %v, local %v", j, got.Probabilities[j], want.Probabilities[j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	if st := srv.Stats(); st.Benchmarks["CifarNet"].Completed != n {
		t.Fatalf("completed %d, want %d", st.Benchmarks["CifarNet"].Completed, n)
	}
}

// postJSONQuiet is postJSON without the testing.T plumbing, for goroutines.
func postJSONQuiet(url, body string) (int, []byte) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// TestHTTPForecast round-trips an explicit history.
func TestHTTPForecast(t *testing.T) {
	_, ts := newHTTPServer(t)
	b, err := tango.LoadBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	history := []float64{0.41, 0.43, 0.42}
	want, err := b.Forecast(history)
	if err != nil {
		t.Fatal(err)
	}

	status, data := postJSON(t, ts.URL+"/v1/forecast", `{"benchmark":"LSTM","history":[0.41,0.43,0.42]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var got struct {
		Prediction float64 `json:"prediction"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	sameForecast(t, "HTTP forecast", got.Prediction, want)
}

// TestHTTPBadRequests covers the 4xx mapping: empty body and wrong-shape
// inputs are 400 (wrapped ErrShape server-side), unknown benchmarks 404,
// unknown routes 404/405.
func TestHTTPBadRequests(t *testing.T) {
	_, ts := newHTTPServer(t)

	cases := []struct {
		name   string
		path   string
		body   string
		status int
		substr string
	}{
		{"empty body", "/v1/classify", "", http.StatusBadRequest, "empty request body"},
		{"bad json", "/v1/classify", "{", http.StatusBadRequest, "invalid request JSON"},
		{"wrong shape", "/v1/classify", `{"benchmark":"CifarNet","image":[1,2,3]}`, http.StatusBadRequest, "want 3072"},
		{"missing image", "/v1/classify", `{"benchmark":"CifarNet"}`, http.StatusBadRequest, ""},
		{"empty history", "/v1/forecast", `{"benchmark":"LSTM","history":[]}`, http.StatusBadRequest, "empty history"},
		{"kind mismatch", "/v1/forecast", `{"benchmark":"CifarNet","history":[0.5]}`, http.StatusBadRequest, "use Classify"},
		{"seed kind mismatch classify", "/v1/classify", `{"benchmark":"LSTM","seed":1}`, http.StatusBadRequest, "/v1/forecast"},
		{"seed kind mismatch forecast", "/v1/forecast", `{"benchmark":"CifarNet","seed":1}`, http.StatusBadRequest, "/v1/classify"},
		{"not served", "/v1/classify", `{"benchmark":"AlexNet","seed":1}`, http.StatusNotFound, "not served"},
		{"empty forecast body", "/v1/forecast", "", http.StatusBadRequest, "empty request body"},
	}
	for _, tc := range cases {
		status, data := postJSON(t, ts.URL+tc.path, tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.status, data)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not {\"error\":...}", tc.name, data)
			continue
		}
		if tc.substr != "" && !strings.Contains(e.Error, tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.substr)
		}
	}

	// Shape rejections must wrap the suite's ErrShape sentinel: the message
	// carries the sentinel text end to end.
	status, data := postJSON(t, ts.URL+"/v1/classify", `{"benchmark":"CifarNet","image":[1,2,3]}`)
	if status != http.StatusBadRequest || !bytes.Contains(data, []byte(tango.ErrShape.Error())) {
		t.Fatalf("shape rejection = %d %q; want 400 mentioning %q", status, data, tango.ErrShape.Error())
	}
}

// TestHTTPHealthAndStats checks the operational JSON endpoints, /healthz and
// the v1 stats blob at /v1/stats, and that /v1/stats is the only JSON stats
// surface: /metrics ignores Accept and always serves the exposition format.
func TestHTTPHealthAndStats(t *testing.T) {
	_, ts := newHTTPServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status     string   `json:"status"`
		Benchmarks []string `json:"benchmarks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != string(tango.HealthHealthy) || len(health.Benchmarks) != 2 {
		t.Fatalf("healthz = %+v", health)
	}

	if _, data := postJSON(t, ts.URL+"/v1/forecast", `{"benchmark":"LSTM","seed":7}`); len(data) == 0 {
		t.Fatal("forecast returned empty body")
	}
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats tango.ServerStats
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatalf("v1 stats: %v", err)
	}
	if stats.Requests == 0 || stats.Batches == 0 {
		t.Fatalf("v1 stats shows no traffic: %+v", stats)
	}
	lstm, ok := stats.Benchmarks["LSTM"]
	if !ok {
		t.Fatalf("v1 stats missing LSTM: %+v", stats)
	}
	if !lstm.Resident || lstm.ResidentBytes <= 0 || lstm.WeightBytes <= 0 {
		t.Fatalf("v1 stats: LSTM memory accounting empty: %+v", lstm)
	}
	var histTotal uint64
	for _, c := range lstm.LatencyHist {
		histTotal += c
	}
	if histTotal != lstm.Completed {
		t.Fatalf("v1 stats: latency histogram holds %d samples, want %d", histTotal, lstm.Completed)
	}

	// A collector that asks /metrics for JSON gets the exposition format
	// like everyone else.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics with a JSON Accept: content type %q, want the text/plain; version=0.0.4 exposition", ct)
	}
	if types, _ := promFamilies(t, string(body)); types["tango_requests_total"] != "counter" {
		t.Fatalf("/metrics with a JSON Accept did not serve the exposition format:\n%.200s", body)
	}
}

// promFamilies parses Prometheus text exposition the way a scraper does:
// HELP/TYPE headers declare families, sample lines carry name{labels} value.
// It fails the test on any malformed line, undeclared sample, or
// non-cumulative histogram, and returns sample values keyed by
// "name{labels}".
func promFamilies(t *testing.T, text string) (types map[string]string, samples map[string]float64) {
	t.Helper()
	types = make(map[string]string)
	samples = make(map[string]float64)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|[+]Inf|NaN)$`)
	helpRe := regexp.MustCompile(`^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) (.+)$`)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			mm := helpRe.FindStringSubmatch(line)
			if mm == nil {
				t.Fatalf("malformed comment line: %q", line)
			}
			if mm[1] == "TYPE" {
				switch mm[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("unknown TYPE %q in %q", mm[3], line)
				}
				types[mm[2]] = mm[3]
			}
			continue
		}
		mm := sampleRe.FindStringSubmatch(line)
		if mm == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(mm[1], "_bucket"), "_sum"), "_count")
		if _, ok := types[mm[1]]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("sample %q has no TYPE declaration", mm[1])
			}
		}
		v, err := strconv.ParseFloat(mm[3], 64)
		if err != nil {
			t.Fatalf("sample %q: bad value %q", line, mm[3])
		}
		if v < 0 && types[base] == "counter" {
			t.Fatalf("negative counter: %q", line)
		}
		samples[mm[1]+mm[2]] = v
	}
	return types, samples
}

// TestHTTPPrometheusMetrics drives traffic, scrapes GET /metrics, and
// verifies the exposition parses scrape-shaped: declared families, valid
// sample lines, nonzero request counters and a consistent latency histogram.
func TestHTTPPrometheusMetrics(t *testing.T) {
	_, ts := newHTTPServer(t)
	for i := 0; i < 4; i++ {
		if status, data := postJSON(t, ts.URL+"/v1/forecast", `{"benchmark":"LSTM","seed":3}`); status != http.StatusOK {
			t.Fatalf("forecast: %d %s", status, data)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types, samples := promFamilies(t, string(body))

	if types["tango_requests_total"] != "counter" {
		t.Fatalf("tango_requests_total type = %q", types["tango_requests_total"])
	}
	if types["tango_request_latency_seconds"] != "histogram" {
		t.Fatalf("latency type = %q", types["tango_request_latency_seconds"])
	}
	if v := samples[`tango_requests_total{benchmark="LSTM"}`]; v < 4 {
		t.Fatalf("LSTM requests_total = %v, want >= 4", v)
	}
	if v := samples[`tango_model_resident_bytes{benchmark="LSTM"}`]; v <= 0 {
		t.Fatalf("LSTM resident bytes = %v, want > 0", v)
	}
	if v := samples["go_goroutines"]; v <= 0 {
		t.Fatalf("go_goroutines = %v", v)
	}

	// Histogram invariants: buckets cumulative, +Inf equals _count.
	var prev float64
	for _, q := range []string{"0.00025", "0.0005", "0.001", "0.0025", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "5", "+Inf"} {
		key := `tango_request_latency_seconds_bucket{benchmark="LSTM",le="` + q + `"}`
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Fatalf("bucket le=%s count %v below previous %v (not cumulative)", q, v, prev)
		}
		prev = v
	}
	if c := samples[`tango_request_latency_seconds_count{benchmark="LSTM"}`]; c != prev {
		t.Fatalf("_count %v != +Inf bucket %v", c, prev)
	}
	if c := samples[`tango_request_latency_seconds_count{benchmark="LSTM"}`]; c < 4 {
		t.Fatalf("latency count %v, want >= 4", c)
	}
}

// goldenServerStats is the handcrafted snapshot the /metrics and /v1/stats
// goldens render: one busy CNN row with every field set, one idle RNN row
// whose name needs label escaping.
func goldenServerStats() tango.ServerStats {
	hist := make([]uint64, 15)
	hist[3] = 90 // 90 requests <= 2.5ms
	hist[7] = 9  // 9 requests <= 50ms
	hist[14] = 1 // one in +Inf
	return tango.ServerStats{
		Requests:         100,
		Completed:        100,
		Shed:             3,
		InFlight:         1,
		Batches:          25,
		MeanBatchSize:    4,
		NumericsTier:     "fast",
		TargetP99Micros:  50_000,
		ModelBudgetBytes: 1 << 30,
		ResidentModels:   1,
		ResidentBytes:    123456,
		Benchmarks: map[string]tango.BenchmarkServeStats{
			`weird"name\with`: {
				Benchmark: `weird"name\with`, Kind: "RNN",
				BreakerState: "open",
			},
			"CifarNet": {
				Benchmark: "CifarNet", Kind: "CNN",
				Counters: serve.Counters{
					Submitted: 100, Completed: 100, Canceled: 2,
					RejectedQueueFull: 5, RejectedClosed: 1,
					Batches: 25, BatchErrors: 1, Bisections: 2, Isolated: 1,
					ShedLoad: 2, ShedBreaker: 1,
				},
				InFlight: 1, QueueLen: 3, QueueCap: 64,
				BreakerState: "closed", MeanBatchSize: 4,
				BatchSizeHist:    []uint64{5, 10, 0, 10},
				LatencyP50Micros: 1800, LatencyP99Micros: 42000,
				LatencyHist:       hist,
				LatencySumMicros:  750_000,
				BatchWindowMicros: 1500,
				Resident:          true,
				ResidentBytes:     123456,
				MemStats:          core.MemStats{WeightBytes: 100000, PackedBytes: 20000, ScratchBytes: 3456},
				Loads:             2, Evictions: 1,
			},
		},
	}
}

// TestPrometheusGolden pins the exposition bytes for a handcrafted snapshot:
// stable family order, sorted benchmark rows, HELP/TYPE headers and label
// escaping must not drift, because scrape configs and recording rules depend
// on exact series names.
func TestPrometheusGolden(t *testing.T) {
	st := goldenServerStats()
	got := tango.MetricsText(st)

	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from %s (regenerate with UPDATE_GOLDEN=1 if intended)\n--- got ---\n%s", golden, got)
	}

	// The golden text itself must parse scrape-shaped, with the escaped
	// label round-tripping.
	types, samples := promFamilies(t, got)
	if len(types) == 0 {
		t.Fatal("no families parsed from golden")
	}
	if v := samples[`tango_requests_total{benchmark="weird\"name\\with"}`]; v != 0 {
		t.Fatalf("escaped-label sample = %v, want 0", v)
	}
	if v := samples[`tango_breaker_state{benchmark="weird\"name\\with"}`]; v != 2 {
		t.Fatalf("escaped-label breaker state = %v, want 2 (open)", v)
	}
	if v := samples[`tango_batch_size_sum{benchmark="CifarNet"}`]; v != 65 {
		t.Fatalf("batch size sum = %v, want 65", v)
	}
}

// TestStatsJSONGolden pins the GET /v1/stats body for the same snapshot:
// the JSON field names and their order, through the encoder the handler
// uses.
func TestStatsJSONGolden(t *testing.T) {
	got := tango.StatsJSON(goldenServerStats())
	golden := filepath.Join("testdata", "stats.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("/v1/stats body drifted from %s (regenerate with UPDATE_GOLDEN=1 if intended)\n--- got ---\n%s", golden, got)
	}
}

// TestHTTPResponseGoldens pins the bytes of three responses a fresh
// CifarNet + LSTM server gives on the reference tier: GET /healthz, a
// seed-based classify and a seed-based forecast.  Each body is compared with
// its file under testdata/ (UPDATE_GOLDEN=1 rewrites them).
func TestHTTPResponseGoldens(t *testing.T) {
	srv, err := tango.NewServer([]string{"CifarNet", "LSTM"}, tango.ServerConfig{Numerics: "reference"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	for _, tc := range []struct {
		golden, method, path, body string
	}{
		{"healthz.golden", "GET", "/healthz", ""},
		{"classify_cifarnet_seed7.golden", "POST", "/v1/classify", `{"benchmark":"CifarNet","seed":7}`},
		{"forecast_lstm_seed7.golden", "POST", "/v1/forecast", `{"benchmark":"LSTM","seed":7}`},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s %s: status %d, Content-Type %q", tc.method, tc.path, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		golden := filepath.Join("testdata", tc.golden)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s %s drifted from %s (regenerate with UPDATE_GOLDEN=1 if intended)\n--- got ---\n%s", tc.method, tc.path, golden, got)
		}
	}
}
