// Command tango-serve is the network-facing inference server of the suite:
// it loads one or more benchmarks, mounts the dynamic-batching tango.Server
// over HTTP (stdlib net/http only), and serves until SIGINT/SIGTERM, then
// drains gracefully.
//
//	tango-serve -addr :8080 -benchmarks CifarNet,LSTM -max-batch 16 -max-delay-us 1000
//
// Endpoints:
//
//	POST /v1/classify  {"benchmark":"CifarNet","image":[...]} or {"benchmark":...,"seed":N}
//	POST /v1/forecast  {"benchmark":"LSTM","history":[...]}   or {"benchmark":...,"seed":N}
//	GET  /v1/stats     JSON stats snapshot
//	GET  /healthz      tri-state health
//	GET  /metrics      Prometheus text exposition
//
// Concurrent requests to the same benchmark are coalesced into batched
// engine runs (up to -max-batch per batch, waiting at most -max-delay-us for
// a batch to fill); responses are bit-identical to single-sample Classify /
// Forecast on the default numerics tier.  -numerics fast|int8 serves a
// fast-numerics tier instead: top-1 classes are preserved but outputs agree
// only within a tolerance.  A full queue (-queue-depth) rejects with HTTP
// 429 instead of queuing unboundedly.
//
// -slo-ms sets a per-request p99 latency target and turns the fixed batch
// window into an adaptive one (grown under queue pressure, shrunk when the
// observed p99 nears the SLO).  -model-budget-mb bounds total resident
// engine bytes, loading models on demand and evicting idle ones LRU-first.
// -debug-addr starts a second listener exposing /debug/pprof/* (kept off
// the serving port so profiling is never publicly reachable by default).
//
// Chaos testing: -faults/-fault-seed (or the TANGO_FAULTS/TANGO_FAULT_SEED
// environment variables) enable the deterministic fault-injection plan, and
// every exit path emits one structured JSON shutdown record on stdout so
// harnesses can assert how the process died and what it drained.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tango"
	"tango/internal/resilience"
)

// shutdownRecord is the structured line emitted on stdout by every exit
// path: orchestrators and chaos harnesses parse it instead of scraping
// free-form logs.  Drained counts the requests completed between the
// shutdown trigger and process exit; InFlight is what was still unresolved
// at exit (nonzero only when the drain timeout expired).
type shutdownRecord struct {
	Event    string  `json:"event"`
	Reason   string  `json:"reason"`
	ExitCode int     `json:"exit_code"`
	UptimeS  float64 `json:"uptime_s"`

	Completed uint64 `json:"completed"`
	Drained   uint64 `json:"drained"`
	InFlight  int64  `json:"in_flight"`
	Rejected  uint64 `json:"rejected"`
	Batches   uint64 `json:"batches"`

	// Models holds the per-benchmark breakdown, keyed by name.  Models that
	// saw no traffic at all are suppressed rather than emitted as all-zero
	// rows: a ten-model server that only served one benchmark reports one
	// row, not nine rows of zeros with empty histograms.
	Models map[string]modelRecord `json:"models,omitempty"`
}

// modelRecord is one served benchmark's slice of the shutdown record.
type modelRecord struct {
	Submitted     uint64   `json:"submitted"`
	Completed     uint64   `json:"completed"`
	Batches       uint64   `json:"batches"`
	MeanBatchSize float64  `json:"mean_batch_size"`
	BatchSizeHist []uint64 `json:"batch_size_hist,omitempty"`
	Rejected      uint64   `json:"rejected,omitempty"`
	Shed          uint64   `json:"shed,omitempty"`
	Evictions     uint64   `json:"evictions,omitempty"`
}

// modelRows builds the per-benchmark breakdown, suppressing rows for models
// that never saw a request (submitted, rejected and shed all zero).
func modelRows(st tango.ServerStats) map[string]modelRecord {
	rows := make(map[string]modelRecord)
	for name, b := range st.Benchmarks {
		shed := b.ShedLoad + b.ShedBreaker
		if b.Submitted == 0 && b.RejectedQueueFull == 0 && shed == 0 {
			continue
		}
		rows[name] = modelRecord{
			Submitted:     b.Submitted,
			Completed:     b.Completed,
			Batches:       b.Batches,
			MeanBatchSize: b.MeanBatchSize,
			BatchSizeHist: b.BatchSizeHist,
			Rejected:      b.RejectedQueueFull,
			Shed:          shed,
			Evictions:     b.Evictions,
		}
	}
	if len(rows) == 0 {
		return nil
	}
	return rows
}

// exit emits the shutdown record and terminates with its exit code.  srv
// and atTrigger may be nil (startup failures die before a server exists).
func exit(rec shutdownRecord, srv *tango.Server, atTrigger *tango.ServerStats, start time.Time) {
	rec.Event = "shutdown"
	rec.UptimeS = time.Since(start).Seconds()
	if srv != nil {
		st := srv.Stats()
		rec.Completed = st.Completed
		rec.InFlight = st.InFlight
		rec.Rejected = st.RejectedQueueFull + st.Shed
		rec.Batches = st.Batches
		rec.Models = modelRows(st)
		if atTrigger != nil {
			rec.Drained = st.Completed - atTrigger.Completed
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		log.Printf("tango-serve: encoding shutdown record: %v", err)
	} else {
		fmt.Println(string(line))
	}
	if rec.ExitCode == 0 {
		fmt.Println("bye")
	}
	os.Exit(rec.ExitCode)
}

func main() {
	start := time.Now()
	addr := flag.String("addr", ":8080", "listen address")
	benchmarks := flag.String("benchmarks", "CifarNet", "comma-separated benchmarks to serve")
	maxBatch := flag.Int("max-batch", 16, "max requests coalesced into one engine batch")
	maxDelayUS := flag.Int("max-delay-us", 1000, "max microseconds the oldest queued request waits for its batch to fill")
	queueDepth := flag.Int("queue-depth", 256, "per-benchmark request queue capacity (full queue rejects with 429)")
	parallel := flag.Int("parallel", 0, "engine workers per batch run (0 = single worker, -1 = one per CPU)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight requests on shutdown")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline (queue wait + compute); 0 = none")
	faults := flag.String("faults", "", "fault-injection spec, e.g. \"serve.batch.run=error:0.05\" (overrides "+resilience.EnvSpec+")")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the deterministic fault-injection plan")
	numerics := flag.String("numerics", "", "numerics tier: reference (bit-exact), fast (packed weights, FMA/AVX-512 kernels; top-1 preserved, not bit-exact) or int8 (quantized); empty takes TANGO_NUMERICS, else reference")
	sloMS := flag.Float64("slo-ms", 0, "per-request p99 latency SLO in milliseconds; >0 enables adaptive batching (window tuned between 0 and min(max-delay, SLO/2))")
	modelBudgetMB := flag.Int64("model-budget-mb", 0, "resident model-engine byte budget in MiB; >0 loads models on demand and evicts idle ones LRU-first")
	onDemand := flag.Bool("on-demand", false, "defer each model's engine load to its first request instead of startup")
	debugAddr := flag.String("debug-addr", "", "optional second listen address exposing /debug/pprof/* (empty = disabled)")
	flag.Parse()

	fail := func(format string, args ...any) {
		log.Printf("tango-serve: "+format, args...)
		exit(shutdownRecord{Reason: "startup-error", ExitCode: 1}, nil, nil, start)
	}

	// A -faults flag beats the environment; either way the active plan is
	// logged so a chaos run is attributable from the server's own output.
	if *faults != "" {
		if err := resilience.Enable(*faults, *faultSeed); err != nil {
			fail("%v", err)
		}
	} else if _, err := resilience.EnableFromEnv(); err != nil {
		fail("%v", err)
	}
	if resilience.Enabled() {
		log.Printf("fault injection active: %s", resilience.Spec())
	}

	names := splitBenchmarks(*benchmarks)
	if len(names) == 0 {
		fail("-benchmarks must name at least one benchmark")
	}
	log.Printf("loading %s ...", strings.Join(names, ", "))
	srv, err := tango.NewServer(names, tango.ServerConfig{
		MaxBatch:         *maxBatch,
		MaxDelay:         time.Duration(*maxDelayUS) * time.Microsecond,
		QueueDepth:       *queueDepth,
		Parallelism:      *parallel,
		RequestTimeout:   *requestTimeout,
		Numerics:         *numerics,
		TargetP99:        time.Duration(max(*sloMS, 0) * float64(time.Millisecond)),
		ModelBudgetBytes: max(*modelBudgetMB, 0) << 20,
		OnDemand:         *onDemand,
	})
	if err != nil {
		fail("%v", err)
	}

	// The pprof surface rides the stdlib DefaultServeMux (registered by the
	// net/http/pprof import) on its own listener, so profiling is opt-in
	// and never exposed on the serving address.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fail("debug listener: %v", err)
		}
		go func() {
			dsrv := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			if err := dsrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("tango-serve: debug listener: %v", err)
			}
		}()
		log.Printf("pprof on %s/debug/pprof/", dln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	batching := fmt.Sprintf("max-delay %dus", *maxDelayUS)
	if *sloMS > 0 {
		batching = fmt.Sprintf("adaptive, p99 SLO %gms", *sloMS)
	}
	log.Printf("serving %s on %s (max-batch %d, %s, queue-depth %d, numerics %s)",
		strings.Join(names, ", "), ln.Addr(), *maxBatch, batching, *queueDepth, srv.Stats().NumericsTier)

	select {
	case err := <-errCh:
		atFailure := srv.Stats()
		log.Printf("tango-serve: %v", err)
		exit(shutdownRecord{Reason: "listener-error", ExitCode: 1}, srv, &atFailure, start)
	case <-ctx.Done():
	}
	// Restore default signal disposition: a second SIGINT/SIGTERM during
	// the drain kills the process immediately instead of being swallowed.
	stop()
	atSignal := srv.Stats()

	log.Print("shutting down: draining in-flight requests ...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("tango-serve: http shutdown: %v", err)
	}
	// The same -drain-timeout window bounds the batcher drain: a queue
	// still full when it expires is abandoned rather than stalling the
	// process past an orchestrator's kill-grace period.
	reason := "signal"
	drained := make(chan struct{})
	go func() {
		srv.Close()
		close(drained)
	}()
	select {
	case <-drained:
	case <-shutdownCtx.Done():
		reason = "drain-timeout"
		log.Print("tango-serve: drain timeout expired with requests still queued")
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("tango-serve: %v", err)
	}

	stats := srv.Stats()
	log.Printf("served %d requests in %d batches (mean batch %.2f, %d rejected)",
		stats.Completed, stats.Batches, stats.MeanBatchSize, stats.RejectedQueueFull)
	exit(shutdownRecord{Reason: reason, ExitCode: 0}, srv, &atSignal, start)
}

// splitBenchmarks parses the -benchmarks list.
func splitBenchmarks(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
