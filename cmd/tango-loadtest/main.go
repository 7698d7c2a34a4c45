// Command tango-loadtest is the CI load generator and chaos harness for
// tango-serve.
//
// In the default -profile steady it fires N concurrent classify requests
// at a running server, then fails loudly unless
//
//   - every request came back 2xx,
//   - every response is bit-identical to a local single-sample Classify of
//     the same input (batching must never change numerics),
//   - /v1/stats reports zero queue-full rejections, and
//   - the mean formed batch size exceeds -min-mean-batch (i.e. dynamic
//     batching actually engaged under the concurrent load).
//
// It waits for /healthz before loading, so CI can start the server in the
// background and invoke this immediately:
//
//	./tango-serve -addr 127.0.0.1:8437 -benchmarks CifarNet &
//	go run ./cmd/tango-loadtest -url http://127.0.0.1:8437 -requests 96 -concurrency 16
//
// The timed profiles (-profile ramp|spike|drain|chaos with -duration) drive
// load shapes instead of a fixed request count, and with -serve-bin the
// loadtest owns the server process itself: it starts it (-addr,
// -serve-args, -serve-env), watches for unexpected exits (any crash fails
// the run), SIGKILLs and restarts it every -kill-every (chaos), and shuts
// it down gracefully at the end.  Timed profiles tolerate backpressure
// (429), degraded-mode rejections (503), injected faults surfaced as 500s,
// and — while the server is being killed or drained — connection errors;
// what they never tolerate is a crash, an unexpected error, or a 200
// response that is not bit-identical to the local engine.  Client-side
// p50/p99 latency over successful requests is reported and, with
// -max-p99-ms, asserted.
//
// When the target server runs a fast-numerics tier (tango-serve -numerics
// fast|int8), pass the same -numerics: verification then requires top-1
// class agreement with the local reference engine plus a relative-error
// bound instead of bitwise equality (with -serve-bin, the flag is also
// forwarded to the owned server).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tango"
	"tango/internal/nn"
)

type classifyResponse struct {
	Class         int       `json:"class"`
	Probabilities []float32 `json:"probabilities"`
}

// verifyTol is the response-verification tolerance selected by -numerics:
// 0 keeps the bit-identical contract; a fast tier relaxes verification to
// top-1 class agreement plus a relative-error bound, because batched
// fast-tier runs tile differently than the local single-sample engine.  Set
// once in main before any worker goroutine starts.
var verifyTol float64

// maxRelErr returns max_i |got_i - want_i| / max_i |want_i|.
func maxRelErr(got, want []float32) float64 {
	var maxAbs, maxDiff float64
	for i := range want {
		if a := math.Abs(float64(want[i])); a > maxAbs {
			maxAbs = a
		}
		if d := math.Abs(float64(got[i]) - float64(want[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxAbs == 0 {
		return maxDiff
	}
	return maxDiff / maxAbs
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8437", "base URL of the running tango-serve (ignored with -serve-bin)")
	benchmark := flag.String("benchmark", "CifarNet", "CNN benchmark to load (must be served)")
	requests := flag.Int("requests", 96, "total requests to fire (steady profile)")
	concurrency := flag.Int("concurrency", 16, "concurrent client goroutines")
	seedBase := flag.Uint64("seed", 1, "first sample seed; request i uses seed+i")
	minMeanBatch := flag.Float64("min-mean-batch", 1.0, "fail unless /v1/stats mean_batch_size exceeds this (steady profile)")
	verify := flag.Bool("verify", true, "bit-compare every 200 response against a local Classify")
	readyTimeout := flag.Duration("ready-timeout", 60*time.Second, "max wait for /healthz")
	profile := flag.String("profile", "steady", "load profile: steady, ramp, spike, drain or chaos")
	duration := flag.Duration("duration", 30*time.Second, "run length for the timed profiles")
	maxP99MS := flag.Float64("max-p99-ms", 0, "fail if client-side p99 over successful requests exceeds this (0 = unbounded)")
	serveBin := flag.String("serve-bin", "", "path to a tango-serve binary; when set, the loadtest owns the server process")
	serveArgs := flag.String("serve-args", "", "extra space-separated arguments for -serve-bin")
	serveEnv := flag.String("serve-env", "", "extra space-separated KEY=VAL environment for -serve-bin")
	killEvery := flag.Duration("kill-every", 0, "SIGKILL and restart the owned server at this interval (0 = never)")
	addr := flag.String("addr", "127.0.0.1:8441", "listen address for the owned server")
	numerics := flag.String("numerics", "", "numerics tier the target server runs: \"\" or reference (bit-exact verify), fast or int8 (tolerance + top-1 verify); with -serve-bin it is passed to the owned server")
	flag.Parse()

	mode, err := nn.ParseNumerics(*numerics)
	if err != nil {
		log.Fatalf("tango-loadtest: -numerics: %v", err)
	}
	switch mode {
	case nn.NumericsFast:
		verifyTol = 1e-3
	case nn.NumericsInt8:
		verifyTol = 0.25
	}

	baseURL := *url
	var sup *supervisor
	if *serveBin != "" {
		baseURL = "http://" + *addr
		args := []string{"-addr", *addr, "-benchmarks", *benchmark}
		if *numerics != "" {
			args = append(args, "-numerics", *numerics)
		}
		sup = &supervisor{
			bin:  *serveBin,
			args: append(args, strings.Fields(*serveArgs)...),
			env:  strings.Fields(*serveEnv),
		}
		if err := sup.start(baseURL+"/healthz", *readyTimeout); err != nil {
			log.Fatalf("tango-loadtest: %v", err)
		}
	} else if err := waitReady(baseURL+"/healthz", *readyTimeout); err != nil {
		log.Fatalf("tango-loadtest: %v", err)
	}

	switch *profile {
	case "steady":
		runSteady(baseURL, *benchmark, *requests, *concurrency, *seedBase, *minMeanBatch, *verify, *maxP99MS, sup)
	case "ramp", "spike", "drain", "chaos":
		runTimed(*profile, baseURL, *benchmark, *concurrency, *seedBase, *duration, *verify, *maxP99MS, *killEvery, sup)
	default:
		log.Fatalf("tango-loadtest: unknown -profile %q (want steady, ramp, spike, drain or chaos)", *profile)
	}
}

// sampleSet pre-generates deterministic inputs and, when verifying, their
// bit-exact local answers, so the timed window contains only HTTP traffic.
func sampleSet(benchmark string, n int, seedBase uint64, verify bool) ([][]float32, []*tango.Classification) {
	b, err := tango.LoadBenchmark(benchmark)
	if err != nil {
		log.Fatalf("tango-loadtest: %v", err)
	}
	images := make([][]float32, n)
	expected := make([]*tango.Classification, n)
	for i := range images {
		img, _, err := b.SampleImage(seedBase + uint64(i))
		if err != nil {
			log.Fatalf("tango-loadtest: %v", err)
		}
		images[i] = img
		if verify {
			expected[i], err = b.Classify(img)
			if err != nil {
				log.Fatalf("tango-loadtest: %v", err)
			}
		}
	}
	return images, expected
}

// runSteady is the original fixed-request-count load test: everything must
// succeed, batching must engage, nothing may be rejected.
func runSteady(baseURL, benchmark string, requests, concurrency int, seedBase uint64, minMeanBatch float64, verify bool, maxP99MS float64, sup *supervisor) {
	images, expected := sampleSet(benchmark, requests, seedBase, verify)

	var failures atomic.Uint64
	var lats latencies
	idx := make(chan int)
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 120 * time.Second}
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t0 := time.Now()
				if err := fire(client, baseURL, benchmark, images[i], expected[i], ""); err != nil {
					failures.Add(1)
					log.Printf("request %d: %v", i, err)
					continue
				}
				lats.add(time.Since(t0))
			}
		}()
	}
	for i := 0; i < requests; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	elapsed := time.Since(start)

	m, err := fetchMetrics(client, baseURL+"/v1/stats")
	if err != nil {
		log.Fatalf("tango-loadtest: %v", err)
	}

	fmt.Printf("fired %d requests (%d concurrent) in %s: %.1f req/s\n",
		requests, concurrency, elapsed.Round(time.Millisecond), float64(requests)/elapsed.Seconds())
	fmt.Printf("server metrics: %d requests, %d batches, mean batch %.2f, %d queue-full rejections\n",
		m.Requests, m.Batches, m.MeanBatchSize, m.RejectedQueueFull)
	p50, p99 := lats.percentiles()
	fmt.Printf("client latency: p50 %s, p99 %s over %d successful requests\n",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), lats.count())

	failed := false
	if n := failures.Load(); n > 0 {
		fmt.Printf("FAIL: %d requests failed or mismatched\n", n)
		failed = true
	}
	if m.RejectedQueueFull > 0 {
		fmt.Printf("FAIL: %d requests were rejected queue-full at default depth\n", m.RejectedQueueFull)
		failed = true
	}
	if m.MeanBatchSize <= minMeanBatch {
		fmt.Printf("FAIL: mean batch size %.2f <= %.2f: dynamic batching did not engage\n",
			m.MeanBatchSize, minMeanBatch)
		failed = true
	}
	if maxP99MS > 0 && p99 > time.Duration(maxP99MS*float64(time.Millisecond)) {
		fmt.Printf("FAIL: client p99 %s exceeds %.1fms\n", p99, maxP99MS)
		failed = true
	}
	if sup != nil {
		if err := sup.shutdown(); err != nil {
			fmt.Printf("FAIL: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	if verify && verifyTol > 0 {
		fmt.Println("PASS: all responses 2xx, top-1 agreement within fast-tier tolerance; batching engaged")
	} else if verify {
		fmt.Println("PASS: all responses 2xx and bit-identical to local Classify; batching engaged")
	} else {
		fmt.Println("PASS: all responses 2xx; batching engaged")
	}
}

// Outcome classes of one timed-profile request.
const (
	outOK       = iota // 200, verified bit-exact
	outShed            // 429 or 503: backpressure/degraded-mode rejection
	outInjected        // 500 carrying an injected-fault marker
	outConn            // transport error while the server was down on purpose
	outBad             // anything else: always a failure
	outKinds
)

var outNames = [outKinds]string{"ok", "shed", "injected", "conn", "bad"}

// runTimed drives one of the shaped profiles for -duration and asserts the
// chaos invariants: no crashes, no unexpected errors, no bit-exactness
// violations, p99 within bound, and the server still served real traffic.
func runTimed(profile, baseURL, benchmark string, concurrency int, seedBase uint64, duration time.Duration, verify bool, maxP99MS float64, killEvery time.Duration, sup *supervisor) {
	const sampleCount = 16
	images, expected := sampleSet(benchmark, sampleCount, seedBase, verify)

	// Connection errors are only legitimate while the server is being
	// killed (chaos) or drained on purpose.
	tolerateConn := profile == "chaos" || profile == "drain" || (sup != nil && killEvery > 0)
	if (profile == "drain" || killEvery > 0) && sup == nil {
		log.Fatalf("tango-loadtest: -profile drain and -kill-every need -serve-bin (the loadtest must own the server)")
	}

	var counts [outKinds]atomic.Uint64
	var bitErrors atomic.Uint64
	var lats latencies
	var seq atomic.Uint64
	stopKiller := make(chan struct{})
	var killerWG sync.WaitGroup
	if sup != nil && killEvery > 0 {
		killerWG.Add(1)
		go func() {
			defer killerWG.Done()
			for {
				select {
				case <-stopKiller:
					return
				case <-time.After(killEvery):
					log.Printf("chaos: SIGKILL + restart")
					if err := sup.killRestart(baseURL+"/healthz", 2*time.Minute); err != nil {
						log.Printf("chaos restart failed: %v", err)
						counts[outBad].Add(1)
						return
					}
				}
			}
		}()
	}
	if profile == "drain" {
		// Begin the graceful drain partway through: the remaining window
		// observes the draining 503s and connection errors.
		time.AfterFunc(duration*3/5, func() {
			log.Printf("drain: SIGTERM to owned server")
			sup.beginShutdown()
		})
	}

	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	end := start.Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for time.Now().Before(end) {
				frac := float64(time.Since(start)) / float64(duration)
				if worker >= allowedWorkers(profile, frac, concurrency) {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				i := seq.Add(1)
				priority := ""
				if profile == "chaos" {
					priority = [...]string{"low", "normal", "high"}[i%3]
				}
				t0 := time.Now()
				kind, err := fireTimed(client, baseURL, benchmark, images[i%sampleCount], expected[i%sampleCount], priority, tolerateConn)
				switch kind {
				case outOK:
					lats.add(time.Since(t0))
				case outConn, outShed:
					// The server is down or shedding; back off instead of
					// hammering the refused socket in a tight loop.
					time.Sleep(10 * time.Millisecond)
				case outBad:
					if err != nil && strings.Contains(err.Error(), "not bit-identical") {
						bitErrors.Add(1)
					}
					log.Printf("request %d: %v", i, err)
				}
				counts[kind].Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stopKiller)
	killerWG.Wait()

	// Snapshot server metrics while the server is still up (best-effort:
	// the drain profile has already taken it down).
	if m, err := fetchMetrics(client, baseURL+"/v1/stats"); err == nil {
		fmt.Printf("server metrics: %d requests, %d batches (mean %.2f), %d bisections, %d isolated, %d shed\n",
			m.Requests, m.Batches, m.MeanBatchSize, sumBisections(m), sumIsolated(m), m.Shed)
	}
	var failed bool
	if sup != nil {
		if err := sup.shutdown(); err != nil {
			fmt.Printf("FAIL: %v\n", err)
			failed = true
		}
		if n := sup.crashes.Load(); n > 0 {
			fmt.Printf("FAIL: server crashed %d time(s)\n", n)
			failed = true
		}
	}

	fmt.Printf("profile %s over %s (%d workers):", profile, duration, concurrency)
	for k := 0; k < outKinds; k++ {
		fmt.Printf(" %s=%d", outNames[k], counts[k].Load())
	}
	fmt.Println()
	p50, p99 := lats.percentiles()
	fmt.Printf("client latency: p50 %s, p99 %s over %d successful requests\n",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), lats.count())

	if counts[outOK].Load() == 0 {
		fmt.Println("FAIL: no request succeeded — the server never served under this profile")
		failed = true
	}
	if n := counts[outBad].Load(); n > 0 {
		fmt.Printf("FAIL: %d unexpected failures\n", n)
		failed = true
	}
	if n := bitErrors.Load(); n > 0 {
		fmt.Printf("FAIL: %d responses were not bit-identical to the local engine\n", n)
		failed = true
	}
	if maxP99MS > 0 && p99 > time.Duration(maxP99MS*float64(time.Millisecond)) {
		fmt.Printf("FAIL: client p99 %s exceeds %.1fms\n", p99, maxP99MS)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	if verifyTol > 0 {
		fmt.Println("PASS: no crashes, no unexpected errors, all 200s within fast-tier tolerance")
	} else {
		fmt.Println("PASS: no crashes, no unexpected errors, all 200s bit-identical")
	}
}

// allowedWorkers shapes the load: how many of the max workers may fire at
// normalized time frac in [0, 1).
func allowedWorkers(profile string, frac float64, max int) int {
	switch profile {
	case "ramp":
		n := 1 + int(frac*float64(max-1))
		if n > max {
			n = max
		}
		return n
	case "spike":
		// Quarter load with a full-concurrency spike through the middle.
		if frac >= 0.4 && frac < 0.6 {
			return max
		}
		n := max / 4
		if n < 1 {
			n = 1
		}
		return n
	default: // steady background for drain/chaos
		return max
	}
}

// latencies is a concurrency-safe latency sample.
type latencies struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

func (l *latencies) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ds)
}

func (l *latencies) percentiles() (p50, p99 time.Duration) {
	l.mu.Lock()
	ds := append([]time.Duration(nil), l.ds...)
	l.mu.Unlock()
	if len(ds) == 0 {
		return 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := func(p float64) time.Duration {
		idx := int(float64(p*float64(len(ds)-1)) + 0.5)
		return ds[idx]
	}
	return rank(0.50), rank(0.99)
}

func sumBisections(m *tango.ServerStats) (n uint64) {
	for _, b := range m.Benchmarks {
		n += b.Bisections
	}
	return n
}

func sumIsolated(m *tango.ServerStats) (n uint64) {
	for _, b := range m.Benchmarks {
		n += b.Isolated
	}
	return n
}

// supervisor owns the tango-serve process during profiles that kill,
// restart or drain it.  Any exit it did not initiate counts as a crash.
type supervisor struct {
	bin  string
	args []string
	env  []string

	mu       sync.Mutex
	cmd      *exec.Cmd
	waitCh   chan error
	expected atomic.Bool
	crashes  atomic.Uint64
}

func (s *supervisor) start(healthURL string, readyTimeout time.Duration) error {
	cmd := exec.Command(s.bin, s.args...)
	cmd.Env = append(os.Environ(), s.env...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", s.bin, err)
	}
	waitCh := make(chan error, 1)
	go func() {
		err := cmd.Wait()
		if !s.expected.Load() {
			s.crashes.Add(1)
			log.Printf("tango-loadtest: server exited unexpectedly: %v", err)
		}
		waitCh <- err
	}()
	s.mu.Lock()
	s.cmd = cmd
	s.waitCh = waitCh
	s.mu.Unlock()
	return waitReady(healthURL, readyTimeout)
}

// killRestart SIGKILLs the server (the expected, violent chaos case) and
// brings a fresh instance up to readiness.
func (s *supervisor) killRestart(healthURL string, readyTimeout time.Duration) error {
	s.mu.Lock()
	cmd, waitCh := s.cmd, s.waitCh
	s.mu.Unlock()
	s.expected.Store(true)
	_ = cmd.Process.Kill()
	<-waitCh
	s.expected.Store(false)
	return s.start(healthURL, readyTimeout)
}

// beginShutdown sends SIGTERM without waiting; the drain profile keeps
// firing while the server drains.
func (s *supervisor) beginShutdown() {
	s.mu.Lock()
	cmd := s.cmd
	s.mu.Unlock()
	s.expected.Store(true)
	_ = cmd.Process.Signal(syscall.SIGTERM)
}

// shutdown gracefully stops the server and fails unless it exits cleanly.
func (s *supervisor) shutdown() error {
	s.mu.Lock()
	cmd, waitCh := s.cmd, s.waitCh
	s.mu.Unlock()
	s.expected.Store(true)
	_ = cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-waitCh:
		if err != nil {
			return fmt.Errorf("server exited uncleanly on SIGTERM: %v", err)
		}
		return nil
	case <-time.After(2 * time.Minute):
		_ = cmd.Process.Kill()
		return fmt.Errorf("server did not exit within 2m of SIGTERM")
	}
}

// waitReady polls healthURL until it answers 200.  The probe client has its
// own short timeout so a wedged listener (accepts, never answers) cannot
// stall the poll loop past the deadline.
func waitReady(healthURL string, timeout time.Duration) error {
	probe := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := probe.Get(healthURL)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not ready after %s: %v", timeout, err)
			}
			return fmt.Errorf("server not ready after %s", timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// fire sends one classify request and, when want is non-nil, bit-compares
// the response against the local per-sample result.
func fire(client *http.Client, baseURL, benchmark string, image []float32, want *tango.Classification, priority string) error {
	body, err := json.Marshal(map[string]any{"benchmark": benchmark, "image": image})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/classify", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if priority != "" {
		req.Header.Set("X-Priority", priority)
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	if want == nil {
		return nil
	}
	var got classifyResponse
	if err := json.Unmarshal(data, &got); err != nil {
		return err
	}
	if got.Class != want.Class {
		return fmt.Errorf("response not bit-identical: class mismatch: served %d, local %d", got.Class, want.Class)
	}
	if len(got.Probabilities) != len(want.Probabilities) {
		return fmt.Errorf("response not bit-identical: probability count mismatch: served %d, local %d",
			len(got.Probabilities), len(want.Probabilities))
	}
	if verifyTol > 0 {
		if re := maxRelErr(got.Probabilities, want.Probabilities); re > verifyTol {
			return fmt.Errorf("response not bit-identical: relative error %.3g exceeds tolerance %.3g", re, verifyTol)
		}
		return nil
	}
	for i := range got.Probabilities {
		if math.Float32bits(got.Probabilities[i]) != math.Float32bits(want.Probabilities[i]) {
			return fmt.Errorf("probability %d not bit-identical: served %v, local %v",
				i, got.Probabilities[i], want.Probabilities[i])
		}
	}
	return nil
}

// statusError is a non-200 response, kept structured so the chaos outcome
// classifier can sort by status code and body.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// fireTimed fires one request under a timed profile and classifies the
// outcome against the chaos tolerance policy.
func fireTimed(client *http.Client, baseURL, benchmark string, image []float32, want *tango.Classification, priority string, tolerateConn bool) (int, error) {
	err := fire(client, baseURL, benchmark, image, want, priority)
	if err == nil {
		return outOK, nil
	}
	var se *statusError
	if !errors.As(err, &se) {
		// Transport-level failure: the connection was refused or cut.
		if tolerateConn {
			return outConn, err
		}
		return outBad, err
	}
	switch {
	case se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable:
		return outShed, err
	case se.code == http.StatusInternalServerError && strings.Contains(se.body, "resilience: injected"):
		return outInjected, err
	default:
		return outBad, err
	}
}

// fetchMetrics reads the server's stats snapshot from GET /v1/stats (the
// JSON surface; /metrics is Prometheus text), decoding into the server's own
// exported type so the CI assertions stay type-linked to the JSON shape
// tango-serve actually emits.
func fetchMetrics(client *http.Client, url string) (*tango.ServerStats, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var m tango.ServerStats
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return &m, nil
}
