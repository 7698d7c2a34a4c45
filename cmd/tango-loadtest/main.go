// Command tango-loadtest is the CI load generator and chaos harness for
// tango-serve.
//
// Every load profile runs through one load loop: workers fire classify
// requests at a server and sort each response into an outcome (ok, shed,
// injected, conn, mismatch, bad).  A run fails on any outcome its profile
// does not tolerate, on no 200 at all, on a client-side p99 over
// -max-p99-ms, and on a crash or unclean exit of a server it owns.  A 200
// that disagrees with a local Classify of the same input is a mismatch,
// which no profile tolerates: batching must never change numerics.
//
// The default -profile steady fires -requests requests and tolerates
// nothing; it alone also fails unless /v1/stats shows zero queue-full
// rejections and a mean formed batch above -min-mean-batch.  It waits for
// /healthz first, so CI can start the server in the background:
//
//	./tango-serve -addr 127.0.0.1:8437 -benchmarks CifarNet &
//	go run ./cmd/tango-loadtest -url http://127.0.0.1:8437 -requests 96 -concurrency 16
//
// The timed profiles (-profile ramp|spike|drain|chaos) shape the load over
// -duration instead.  With -serve-bin the loadtest owns the server: it
// starts it (-addr, -serve-args, -serve-env), counts any exit it did not
// cause as a crash, SIGKILLs and restarts it every -kill-every, and shuts
// it down gracefully at the end.  Timed profiles tolerate backpressure
// (429), degraded-mode rejections (503), injected faults surfaced as 500s
// and, while the server is killed or drained on purpose, connection errors.
//
// The numerics tier is resolved once, from -numerics or else the
// TANGO_NUMERICS environment variable, and pinned on both sides: the local
// Classify runs that tier, and with -serve-bin the owned server gets it as
// -numerics.  An external server (-url) must run the same tier.  The
// reference tier verifies bit for bit; a fast tier (fast, int8) requires
// top-1 class agreement plus a relative-error bound instead.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"os/exec"
	"slices"
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

// Verification tolerances of the fast tiers: batched fast-tier runs tile
// differently than the local single-sample engine, so their 200s must keep
// the top-1 class and stay within this relative error instead of matching
// bit for bit.
const (
	fastTol = 1e-3
	int8Tol = 0.25
)

// maxRelErr returns max_i |got_i - want_i| / max_i |want_i|.
func maxRelErr(got, want []float32) float64 {
	var maxAbs, maxDiff float64
	for i := range want {
		maxAbs = max(maxAbs, math.Abs(float64(want[i])))
		maxDiff = max(maxDiff, math.Abs(float64(got[i])-float64(want[i])))
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
	readyTimeout := flag.Duration("ready-timeout", 60*time.Second, "max wait for /healthz")
	profile := flag.String("profile", "steady", "load profile: steady, ramp, spike, drain or chaos")
	duration := flag.Duration("duration", 30*time.Second, "run length for the timed profiles")
	maxP99MS := flag.Float64("max-p99-ms", 0, "fail if client-side p99 over successful requests exceeds this (0 = unbounded)")
	serveBin := flag.String("serve-bin", "", "path to a tango-serve binary; when set, the loadtest owns the server process")
	serveArgs := flag.String("serve-args", "", "extra space-separated arguments for -serve-bin")
	serveEnv := flag.String("serve-env", "", "extra space-separated KEY=VAL environment for -serve-bin")
	killEvery := flag.Duration("kill-every", 0, "SIGKILL and restart the owned server at this interval (0 = never)")
	addr := flag.String("addr", "127.0.0.1:8441", "listen address for the owned server")
	numerics := flag.String("numerics", "", "numerics tier the target server runs: reference (bit-exact verify), fast or int8 (tolerance + top-1 verify); empty takes TANGO_NUMERICS, else reference; pinned on the local engine and, with -serve-bin, on the owned server")
	flag.Parse()

	c := config{
		baseURL: *url, benchmark: *benchmark, profile: *profile,
		requests: *requests, duration: *duration, concurrency: *concurrency, seed: *seedBase,
		local:        tango.WithReferenceNumerics(),
		minMeanBatch: *minMeanBatch, maxP99MS: *maxP99MS, killEvery: *killEvery,
	}
	if err := c.usage(); err != nil {
		fmt.Fprintf(os.Stderr, "tango-loadtest: %v\n", err)
		os.Exit(2)
	}
	mode, err := nn.ParseNumerics(cmp.Or(*numerics, os.Getenv("TANGO_NUMERICS")))
	if err != nil {
		log.Fatalf("tango-loadtest: -numerics: %v", err)
	}
	switch mode {
	case nn.NumericsFast:
		c.tol, c.local = fastTol, tango.WithFastMath()
	case nn.NumericsInt8:
		c.tol, c.local = int8Tol, tango.WithInt8()
	}

	if *serveBin != "" {
		c.baseURL = "http://" + *addr
		args := []string{"-addr", *addr, "-benchmarks", *benchmark, "-numerics", mode.String()}
		c.sup = &supervisor{
			bin:  *serveBin,
			args: append(args, strings.Fields(*serveArgs)...),
			env:  strings.Fields(*serveEnv),
		}
		if err := c.sup.start(c.baseURL+"/healthz", *readyTimeout); err != nil {
			log.Fatalf("tango-loadtest: %v", err)
		}
	} else if c.profile == "drain" || c.killEvery > 0 {
		log.Fatalf("tango-loadtest: -profile drain and -kill-every need -serve-bin (the loadtest must own the server)")
	} else if err := waitReady(c.baseURL+"/healthz", *readyTimeout); err != nil {
		log.Fatalf("tango-loadtest: %v", err)
	}

	failures := run(c)
	for _, f := range failures {
		fmt.Println("FAIL: " + f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	agree := "bit-identical to"
	if c.tol > 0 {
		agree = fmt.Sprintf("top-1 equal and within relative error %g of", c.tol)
	}
	fmt.Printf("PASS: %s: no crash, no outcome the profile does not tolerate, every 200 %s the local engine\n", c.profile, agree)
}

// outcome is how one request ended.
type outcome int

const (
	outOK       outcome = iota // 200 that agrees with the local engine
	outShed                    // 429 or 503: backpressure or degraded-mode rejection
	outInjected                // 500 carrying an injected-fault marker
	outConn                    // transport error: the connection was refused or cut
	outMismatch                // 200 that disagrees with the local engine
	outBad                     // any other status, or an unreadable 200
	outKinds
)

var outNames = [outKinds]string{"ok", "shed", "injected", "conn", "mismatch", "bad"}

// config is one loadtest run.  The profile fixes the rest of its shape:
// steady stops after requests, the others after duration; allowedWorkers
// shapes the load over time; tolerated names the outcomes it accepts.
type config struct {
	baseURL, benchmark, profile string

	requests     int           // steady: requests to fire
	duration     time.Duration // timed profiles: run length
	concurrency  int
	seed         uint64          // first sample seed
	local        tango.SimOption // the tier the local engine verifies with
	tol          float64         // 0 verifies bit for bit; else top-1 plus this relative error
	minMeanBatch float64         // steady: fail unless the mean formed batch exceeds this
	maxP99MS     float64         // 0 = unbounded
	killEvery    time.Duration
	sup          *supervisor // the owned server, or nil
}

// usage returns why c's flags describe no run, or nil.
func (c *config) usage() error {
	switch {
	case !slices.Contains([]string{"steady", "ramp", "spike", "drain", "chaos"}, c.profile):
		return fmt.Errorf("unknown -profile %q (want steady, ramp, spike, drain or chaos)", c.profile)
	case c.profile == "steady" && c.requests < 1:
		return fmt.Errorf("-requests %d: the steady profile fires at least one request", c.requests)
	case c.concurrency < 1:
		return fmt.Errorf("-concurrency %d: at least one worker fires requests", c.concurrency)
	}
	return nil
}

// tolerated returns the outcomes other than ok that the profile accepts:
// steady none, the timed profiles shed and injected ones, plus connection
// errors while the server is killed or drained on purpose.
func (c *config) tolerated() (t [outKinds]bool) {
	if c.profile == "steady" {
		return t
	}
	t[outShed], t[outInjected] = true, true
	t[outConn] = c.profile == "chaos" || c.profile == "drain" || c.killEvery > 0
	return t
}

// run drives c's profile, prints its report and returns why it failed
// (nothing on a pass).  An owned server is shut down before run returns.
func run(c config) (failures []string) {
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	if c.sup != nil {
		defer func() {
			if err := c.sup.shutdown(); err != nil {
				fail("%v", err)
			}
			if n := c.sup.crashes.Load(); n > 0 {
				fail("server crashed %d time(s)", n)
			}
		}()
	}
	timed, n := c.profile != "steady", c.requests
	if timed {
		n = 16 // a timed run cycles through 16 samples
	}
	images, expected, err := sampleSet(c.benchmark, n, c.seed, c.local)
	if err != nil {
		fail("%v", err)
		return failures
	}

	var counts [outKinds]atomic.Uint64
	stopKiller := make(chan struct{})
	var killerWG sync.WaitGroup
	if c.sup != nil && c.killEvery > 0 {
		killerWG.Add(1)
		go func() {
			defer killerWG.Done()
			for {
				select {
				case <-stopKiller:
					return
				case <-time.After(c.killEvery):
					log.Printf("chaos: SIGKILL + restart")
					if err := c.sup.killRestart(c.baseURL+"/healthz", 2*time.Minute); err != nil {
						log.Printf("chaos restart failed: %v", err)
						counts[outBad].Add(1)
						return
					}
				}
			}
		}()
	}
	if c.profile == "drain" {
		// Begin the graceful drain partway through: the remaining window
		// observes the draining 503s and connection errors.
		time.AfterFunc(c.duration*3/5, func() {
			log.Printf("drain: SIGTERM to owned server")
			c.sup.signal(syscall.SIGTERM) // no wait: the load keeps firing while it drains
		})
	}

	tolerated := c.tolerated()
	var lats latencies
	var seq atomic.Int64
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c.concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if timed {
					frac := float64(time.Since(start)) / float64(c.duration)
					if frac >= 1 {
						return
					}
					if worker >= allowedWorkers(c.profile, frac, c.concurrency) {
						time.Sleep(5 * time.Millisecond)
						continue
					}
				}
				i := seq.Add(1) - 1
				if !timed && i >= int64(c.requests) {
					return
				}
				priority := ""
				if c.profile == "chaos" {
					priority = [...]string{"low", "normal", "high"}[i%3]
				}
				t0 := time.Now()
				kind, err := fire(client, c.baseURL, c.benchmark, images[i%int64(n)], expected[i%int64(n)], c.tol, priority)
				counts[kind].Add(1)
				switch {
				case kind == outOK:
					lats.add(time.Since(t0))
				case !tolerated[kind]:
					log.Printf("request %d: %s: %v", i, outNames[kind], err)
				}
				if kind == outConn || kind == outShed {
					// The server is down or shedding; back off instead of
					// hammering the refused socket in a tight loop.
					time.Sleep(10 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopKiller)
	killerWG.Wait()

	fmt.Printf("profile %s, %d workers, %s:", c.profile, c.concurrency, elapsed.Round(time.Millisecond))
	var total uint64
	for k, name := range outNames {
		fmt.Printf(" %s=%d", name, counts[k].Load())
		total += counts[k].Load()
	}
	fmt.Printf(" (%.1f req/s)\n", float64(total)/elapsed.Seconds())
	p50, p99, ok := lats.percentiles()
	fmt.Printf("client latency: p50 %s, p99 %s over %d successful requests\n",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), ok)

	// The server's own counters, while it is still up: the drain profile
	// has already taken it down, so only steady requires them.
	m, err := fetchMetrics(client, c.baseURL+"/v1/stats")
	if err == nil {
		fmt.Printf("server metrics: %d requests, %d batches, mean batch %.2f, %d queue-full rejections, %d shed\n",
			m.Requests, m.Batches, m.MeanBatchSize, m.RejectedQueueFull, m.Shed)
	}
	if !timed && err != nil {
		fail("%v", err)
	} else if !timed {
		if m.RejectedQueueFull > 0 {
			fail("%d requests were rejected queue-full at default depth", m.RejectedQueueFull)
		}
		if m.MeanBatchSize <= c.minMeanBatch {
			fail("mean batch size %.2f <= %.2f: dynamic batching did not engage", m.MeanBatchSize, c.minMeanBatch)
		}
	}

	if ok == 0 {
		fail("no request succeeded: the server never served under this profile")
	}
	for k := outShed; k < outKinds; k++ {
		if n := counts[k].Load(); n > 0 && !tolerated[k] {
			fail("%d %s outcomes, which %s does not tolerate", n, outNames[k], c.profile)
		}
	}
	if c.maxP99MS > 0 && p99 > time.Duration(c.maxP99MS*float64(time.Millisecond)) {
		fail("client p99 %s exceeds %.1fms", p99, c.maxP99MS)
	}
	return failures
}

// sampleSet pre-generates n deterministic inputs and their local answers on
// the tier local pins, so the load window holds only HTTP traffic.
func sampleSet(benchmark string, n int, seed uint64, local tango.SimOption) ([][]float32, []*tango.Classification, error) {
	b, err := tango.LoadBenchmark(benchmark)
	if err != nil {
		return nil, nil, err
	}
	images := make([][]float32, n)
	expected := make([]*tango.Classification, n)
	for i := range images {
		if images[i], _, err = b.SampleImage(seed + uint64(i)); err != nil {
			return nil, nil, err
		}
		if expected[i], err = b.Classify(images[i], local); err != nil {
			return nil, nil, err
		}
	}
	return images, expected, nil
}

// allowedWorkers shapes the load: how many of n workers may fire at
// normalized time frac in [0, 1).
func allowedWorkers(profile string, frac float64, n int) int {
	switch profile {
	case "ramp":
		return min(1+int(frac*float64(n-1)), n)
	case "spike":
		// Quarter load with a full-concurrency spike through the middle.
		if frac >= 0.4 && frac < 0.6 {
			return n
		}
		return max(n/4, 1)
	}
	return n // a constant load for steady, drain and chaos
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

// percentiles returns the sample's p50 and p99 and its size.
func (l *latencies) percentiles() (p50, p99 time.Duration, n int) {
	l.mu.Lock()
	ds := append([]time.Duration(nil), l.ds...)
	l.mu.Unlock()
	if len(ds) == 0 {
		return 0, 0, 0
	}
	slices.Sort(ds)
	rank := func(p float64) time.Duration { return ds[int(p*float64(len(ds)-1)+0.5)] }
	return rank(0.50), rank(0.99), len(ds)
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
	s.cmd, s.waitCh = cmd, waitCh
	s.mu.Unlock()
	return waitReady(healthURL, readyTimeout)
}

// signal marks the server's next exit as expected, sends it sig and returns
// the channel its exit arrives on.
func (s *supervisor) signal(sig os.Signal) <-chan error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expected.Store(true)
	_ = s.cmd.Process.Signal(sig)
	return s.waitCh
}

// killRestart SIGKILLs the server (the expected, violent chaos case) and
// brings a fresh instance up to readiness.
func (s *supervisor) killRestart(healthURL string, readyTimeout time.Duration) error {
	<-s.signal(os.Kill)
	s.expected.Store(false)
	return s.start(healthURL, readyTimeout)
}

// shutdown gracefully stops the server and fails unless it exits cleanly.
func (s *supervisor) shutdown() error {
	waitCh := s.signal(syscall.SIGTERM)
	select {
	case err := <-waitCh:
		if err != nil {
			return fmt.Errorf("server exited uncleanly on SIGTERM: %v", err)
		}
		return nil
	case <-time.After(2 * time.Minute):
		s.signal(os.Kill)
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

// fire sends one classify request and sorts the response into an outcome.
// A 200 must agree with want: bit for bit when tol is 0, else in class and
// within relative error tol.
func fire(client *http.Client, baseURL, benchmark string, image []float32, want *tango.Classification, tol float64, priority string) (outcome, error) {
	body, err := json.Marshal(map[string]any{"benchmark": benchmark, "image": image})
	if err != nil {
		return outBad, err
	}
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/classify", bytes.NewReader(body))
	if err != nil {
		return outBad, err
	}
	req.Header.Set("Content-Type", "application/json")
	if priority != "" {
		req.Header.Set("X-Priority", priority)
	}
	resp, err := client.Do(req)
	if err != nil {
		return outConn, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return outConn, err
	}
	if code := resp.StatusCode; code != http.StatusOK {
		err := fmt.Errorf("status %d: %s", code, bytes.TrimSpace(data))
		switch {
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			return outShed, err
		case code == http.StatusInternalServerError && bytes.Contains(data, []byte("resilience: injected")):
			return outInjected, err
		}
		return outBad, err
	}
	var got classifyResponse
	if err := json.Unmarshal(data, &got); err != nil {
		return outBad, err
	}
	switch {
	case got.Class != want.Class:
		return outMismatch, fmt.Errorf("class: served %d, local %d", got.Class, want.Class)
	case len(got.Probabilities) != len(want.Probabilities):
		return outMismatch, fmt.Errorf("probability count: served %d, local %d", len(got.Probabilities), len(want.Probabilities))
	case tol > 0:
		if re := maxRelErr(got.Probabilities, want.Probabilities); re > tol {
			return outMismatch, fmt.Errorf("relative error %.3g exceeds tolerance %.3g", re, tol)
		}
		return outOK, nil
	}
	for i := range got.Probabilities {
		if math.Float32bits(got.Probabilities[i]) != math.Float32bits(want.Probabilities[i]) {
			return outMismatch, fmt.Errorf("probability %d: served %v, local %v", i, got.Probabilities[i], want.Probabilities[i])
		}
	}
	return outOK, nil
}

// fetchMetrics reads GET /v1/stats into the server's own exported type, so
// the checks stay type-linked to the JSON tango-serve emits.
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
