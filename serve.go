package tango

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"tango/internal/nn"
	"tango/internal/serve"
)

// This file is the embedding API of the serving subsystem, a facade over
// internal/serve: a Server owns one dynamic-batching scheduler per
// benchmark, so concurrent independent Classify / Forecast requests are
// coalesced into ClassifyBatch / ForecastBatch calls and the batched engine
// is what runs under load.  internal/serve holds the model lifecycle,
// admission, stats, the HTTP handler and the Prometheus renderer; this file
// gives it the library's batched entry points as a loader.

// ServerConfig configures a Server: batching policy, admission, numerics tier
// and model lifecycle.  The zero value is a usable default (batches of up to
// 16, greedy flush, queue depth 256, single-worker engine, every model loaded
// at construction).
type ServerConfig struct {
	// MaxBatch is the largest batch formed per benchmark; a forming batch
	// is flushed as soon as it reaches MaxBatch requests.  <1 selects the
	// default (16).
	MaxBatch int
	// MaxDelay bounds how long the oldest queued request waits for the
	// batch to fill before being flushed anyway.  Zero flushes as soon as
	// the queue is momentarily empty (greedy batching, no added latency).
	// Under TargetP99 it becomes the adaptive window's ceiling instead.
	MaxDelay time.Duration
	// QueueDepth is the per-benchmark bounded queue capacity; requests
	// beyond it are rejected immediately with ErrQueueFull.  <1 selects
	// the default (256).
	QueueDepth int
	// Parallelism is the compute-engine worker count used for batch runs.
	// Unlike native inference's default, 0 keeps the single-worker engine
	// (batching already uses the cores a server has spare); negative
	// selects one worker per CPU, as WithParallelism does.  Batching composes with engine
	// parallelism: the batch amortizes weight traffic, the workers split
	// each batch's GEMM row panels.
	Parallelism int
	// RequestTimeout bounds each request's end-to-end time (queue wait +
	// batch compute) with a context deadline; requests whose caller context
	// carries a tighter deadline keep the tighter one.  Zero means no
	// server-imposed deadline.
	RequestTimeout time.Duration
	// Numerics selects the compute-engine numerics tier for every served
	// benchmark: "reference" (bit-exact), "fast" (WithFastMath) or "int8"
	// (WithInt8); "" takes the TANGO_NUMERICS environment default
	// (reference when unset), resolved once at construction.  Under a fast
	// tier, served results preserve each request's top-1 class but are no
	// longer bit-identical to single-sample Classify / Forecast.
	Numerics string
	// TargetP99 is the per-request p99 latency SLO.  Non-zero switches every
	// benchmark's batcher from a fixed batch window to an adaptive one: a
	// per-model controller tunes the window between zero and
	// min(MaxDelay, TargetP99/2) from observed queue depth and p99 latency,
	// so light load is served at single-sample latency while pressure still
	// fills batches.
	TargetP99 time.Duration
	// ModelBudgetBytes caps the total resident bytes (weights + packed
	// panels + scratch high-water) of loaded model engines.  Exceeding it
	// evicts idle engines in least-recently-used order; an evicted model
	// reloads transparently on its next request, with its serving counters
	// carried across the eviction.  A budget implies OnDemand.  Zero means
	// unlimited (every model stays resident).
	ModelBudgetBytes int64
	// OnDemand defers each benchmark's engine load (weight synthesis, plan
	// resolution, prewarm) to its first request instead of NewServer.
	// Construction still validates every benchmark name and kind up front,
	// so an unknown model fails fast; only the expensive load is lazy.
	OnDemand bool
}

// Server coalesces concurrent inference requests into batched engine runs.
// Create one with NewServer, embed it directly (Classify / Forecast) or
// mount its Handler on an HTTP server, and Close it to drain.
//
// Under the default ("reference") numerics tier, results are bit-identical
// to calling Benchmark.Classify / Forecast on the same inputs: batching
// changes scheduling, never numerics.
type Server struct {
	srv *serve.Server
}

// NewServer validates and registers the named benchmarks and starts one
// dynamic-batching scheduler per benchmark.  By default every engine loads
// eagerly — weight plan resolved, scratch pools grown, so the first request is
// served at steady-state speed; under on-demand loading (or a model budget)
// construction only validates names and kinds and the first request pays the
// load.  The caller must Close the server to stop the scheduler goroutines.
func NewServer(benchmarks []string, cfg ServerConfig) (*Server, error) {
	// The tier is resolved once — config if set, else the environment — and
	// pinned on every batch run, so Stats and /metrics report what runs.
	tier := cfg.Numerics
	if tier == "" {
		tier = os.Getenv("TANGO_NUMERICS")
	}
	mode, err := nn.ParseNumerics(tier)
	if err != nil {
		return nil, fmt.Errorf("tango: NewServer: %w", err)
	}
	workers := cfg.Parallelism
	if workers == 0 {
		workers = 1
	}
	opts := []SimOption{withNumerics(mode), WithParallelism(workers)}
	srv, err := serve.NewServer(benchmarks, serve.Options{
		Batch: serve.Config{
			MaxBatch:   cfg.MaxBatch,
			MaxDelay:   cfg.MaxDelay,
			QueueDepth: cfg.QueueDepth,
			SLO:        cfg.TargetP99,
		},
		RequestTimeout:   cfg.RequestTimeout,
		ModelBudgetBytes: cfg.ModelBudgetBytes,
		OnDemand:         cfg.OnDemand,
		Numerics:         mode.String(),
		Load: func(name string) (*serve.Model, error) {
			b, err := LoadBenchmark(name)
			if err != nil {
				return nil, err
			}
			return &serve.Model{
				ClassifyBatch: func(images [][]float32) ([]BatchClassification, error) {
					return b.ClassifyBatch(images, opts...)
				},
				SampleImage: func(seed uint64) ([]float32, error) {
					image, _, err := b.SampleImage(seed)
					return image, err
				},
				ForecastBatch: func(histories [][]float64) ([]float64, error) {
					return b.ForecastBatch(histories, opts...)
				},
				SampleHistory: b.SampleHistory,
				MemStats:      b.inner.MemStats,
			}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &Server{srv: srv}, nil
}

// Benchmarks returns the served benchmark names in configuration order.
func (s *Server) Benchmarks() []string { return s.srv.Benchmarks() }

// Classify submits one image to a served CNN benchmark and blocks until its
// batch has run or ctx is done.  The image must be a flat CHW float32 slice
// of the benchmark's input shape; wrong lengths are rejected up front with a
// wrapped ErrShape so one bad request never poisons a batch.  Under load,
// concurrent calls share batched engine runs; under the default numerics
// tier the result is bit-identical to Benchmark.Classify on the same image.
// A cold (on-demand or evicted) model loads transparently.  The image slice
// is retained until its batch runs: callers must not mutate it before
// Classify returns.
func (s *Server) Classify(ctx context.Context, benchmark string, image []float32) (BatchClassification, error) {
	return s.srv.Classify(ctx, benchmark, image)
}

// Forecast submits one history of scalar observations to a served RNN
// benchmark and blocks until its batch has run or ctx is done.  Histories of
// different lengths may be submitted concurrently; the scheduler groups
// equal lengths per engine call.  Under the default numerics tier the result
// is bit-identical to Benchmark.Forecast on the same history.  A cold
// (on-demand or evicted) model loads transparently.  The history slice is
// retained until its batch runs: callers must not mutate it before Forecast
// returns.
func (s *Server) Forecast(ctx context.Context, benchmark string, history []float64) (float64, error) {
	return s.srv.Forecast(ctx, benchmark, history)
}

// Close stops accepting requests, serves everything already queued
// (graceful drain), and stops the scheduler goroutines.  It is idempotent.
// Requests submitted after Close begins fail with ErrServerClosed.
func (s *Server) Close() { s.srv.Close() }

// ServerStats is a point-in-time snapshot of a Server's counters, served as
// JSON by GET /v1/stats and rendered as Prometheus text by GET /metrics.
type ServerStats = serve.ServerStats

// BenchmarkServeStats is the per-benchmark slice of a ServerStats.  Its
// counters span the model's lifetime: they survive engine eviction and
// reload.
type BenchmarkServeStats = serve.BenchmarkServeStats

// Stats snapshots the server's counters: request totals, rejections,
// batches formed, batch-size and latency histograms, latency percentiles,
// adaptive batch windows and per-model residency.
func (s *Server) Stats() ServerStats { return s.srv.Stats() }

// HealthReport is the GET /healthz body: overall status, the reasons a
// non-healthy status was chosen, and each benchmark's ModelHealth.
type HealthReport = serve.HealthReport

// ModelHealth is one benchmark's breaker, queue and residency state in a
// HealthReport.
type ModelHealth = serve.ModelHealth

// HealthStatus is the server's tri-state health.
type HealthStatus = serve.HealthStatus

const (
	// HealthHealthy: all breakers closed, queues below pressure.
	HealthHealthy = serve.HealthHealthy
	// HealthDegraded: still serving, but at least one breaker is open or
	// half-open, or a queue is at shedding pressure.  Load balancers
	// should prefer other replicas but need not eject this one.
	HealthDegraded = serve.HealthDegraded
	// HealthDraining: shutdown has begun; no new work is accepted.
	HealthDraining = serve.HealthDraining
)

// Health derives the server's tri-state health from breaker and queue
// state: draining once Close has begun, degraded while any breaker is
// open/half-open or any queue is at shedding pressure, healthy otherwise.
// A degraded server is alive and still serving what it can — the point of
// the resilience layer is that faults land here, not in a dead process.
func (s *Server) Health() HealthReport { return s.srv.Health() }

// Priority classifies a request for admission under load.  Under queue
// pressure the server sheds low-priority work first, then normal; high
// priority is only ever rejected by a completely full queue.
type Priority = serve.Priority

const (
	// PriorityNormal is the default class (the zero value): shed when the
	// queue is above ~90% occupancy.
	PriorityNormal = serve.PriorityNormal
	// PriorityLow marks best-effort work (batch backfill, speculative
	// prefetch): shed when the queue is above ~50% occupancy.
	PriorityLow = serve.PriorityLow
	// PriorityHigh marks interactive work: admitted until the queue is
	// completely full.
	PriorityHigh = serve.PriorityHigh
)

// WithPriority tags a request context with a priority class; Server
// admission reads it when deciding what to shed under load.  The HTTP
// frontend maps the X-Priority header ("low", "normal", "high") onto
// this.
func WithPriority(ctx context.Context, p Priority) context.Context {
	return serve.WithPriority(ctx, p)
}

// Handler returns the Server's HTTP API as a stdlib http.Handler, ready to
// mount on any mux or http.Server; the tango-serve binary is a thin wrapper
// around it.  Its endpoints:
//
//	POST /v1/classify  {"benchmark":"CifarNet","image":[...]}   -> {"class":..,"probabilities":[...]}
//	POST /v1/forecast  {"benchmark":"LSTM","history":[...]}     -> {"prediction":..}
//	GET  /v1/stats                                              -> ServerStats JSON
//	GET  /healthz                                               -> HealthReport JSON
//	GET  /metrics                                               -> Prometheus text exposition
//
// Classify and forecast requests may pass {"seed":N} instead of an image or
// history to use the benchmark's deterministic sample input, and an
// X-Priority header ("low", "normal", "high") for admission.  Shape errors
// answer 400, unknown benchmarks 404, a full queue or shed load 429, an
// open circuit breaker or a draining server 503 (the last two with
// Retry-After), anything else 500; error bodies are {"error":"..."}.
// /healthz answers 200 when healthy or degraded and 503 while draining.
func (s *Server) Handler() http.Handler { return s.srv.Handler() }
