package tango

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/resilience"
	"tango/internal/serve"
)

// This file implements the embedding API of the serving subsystem: a Server
// owns one dynamic-batching scheduler per benchmark, so concurrent
// independent Classify / Forecast requests are coalesced into ClassifyBatch /
// ForecastBatch calls and the batched engine is what runs under load.  The
// cmd/tango-serve binary wraps a Server in an HTTP frontend (see Handler).
//
// Each served benchmark separates cheap identity (name, kind, input shape —
// resolved at construction from the network registry) from its expensive
// engine (synthesized weights, resolved plan, prewarmed scratch, running
// batcher).  The engine loads eagerly by default, on demand under
// ServerConfig.OnDemand, and is evicted in LRU order when a
// ServerConfig.ModelBudgetBytes budget is exceeded — serving counters survive
// eviction and reload.

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
	// cfg is the resolved configuration: Numerics holds the canonical name
	// of the tier every batch runs on (simOpts always pins it explicitly) and
	// a model budget has set OnDemand.
	cfg      ServerConfig
	batchCfg serve.Config
	simOpts  []SimOption
	models   map[string]*serverModel
	order    []string
	// lifeMu serializes engine load and evict transitions across all
	// models, so budget accounting sees a consistent resident set.
	lifeMu sync.Mutex
	// draining flips once Close begins; /healthz reports it so load
	// balancers stop routing here while queued work finishes.
	draining atomic.Bool
}

// serverModel is one served benchmark: its registry identity (always
// present) plus a loadable engine and the admission state — circuit breaker,
// in-flight and shed counters — that outlives engine evictions.
type serverModel struct {
	name       string
	kind       networks.Kind
	inputShape []int
	inputLen   int

	// eng is the loaded engine, nil while cold.  Load/evict transitions
	// are serialized by Server.lifeMu; readers take the pointer lock-free.
	eng atomic.Pointer[modelEngine]
	// statsMu guards baseStats, the merged counters of evicted engines.
	statsMu   sync.Mutex
	baseStats serve.Stats
	// lastUsed is the unix-nano admission timestamp driving LRU eviction.
	lastUsed  atomic.Int64
	loads     atomic.Uint64
	evictions atomic.Uint64

	// breaker trips after consecutive engine failures so a broken backend
	// fails fast (ErrDegraded) instead of queueing doomed work.
	breaker *resilience.Breaker
	// inFlight counts admitted requests that have not yet resolved.
	inFlight atomic.Int64
	// shedLoad counts occupancy-based rejections; shedBreaker counts
	// breaker-based ones.
	shedLoad    atomic.Uint64
	shedBreaker atomic.Uint64
}

// modelEngine is the expensive, evictable half of a served benchmark: the
// loaded workload and its running request batcher (classify for CNNs,
// forecast for RNNs).
type modelEngine struct {
	bench    *Benchmark
	classify *serve.Batcher[[]float32, BatchClassification]
	forecast *serve.Batcher[[]float64, float64]
}

func (e *modelEngine) close() {
	if e.classify != nil {
		e.classify.Close()
	}
	if e.forecast != nil {
		e.forecast.Close()
	}
}

func (e *modelEngine) stats() serve.Stats {
	if e.classify != nil {
		return e.classify.Stats()
	}
	return e.forecast.Stats()
}

func (e *modelEngine) queue() (int, int) {
	if e.classify != nil {
		return e.classify.QueueLen(), e.classify.QueueCap()
	}
	return e.forecast.QueueLen(), e.forecast.QueueCap()
}

// NewServer validates and registers the named benchmarks and starts one
// dynamic-batching scheduler per benchmark.  By default every engine loads
// eagerly — weight plan resolved, scratch pools grown, so the first request is
// served at steady-state speed; under on-demand loading (or a model budget)
// construction only validates names and kinds and the first request pays the
// load.  The caller must Close the server to stop the scheduler goroutines.
func NewServer(benchmarks []string, cfg ServerConfig) (*Server, error) {
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("tango: NewServer needs at least one benchmark")
	}
	if cfg.ModelBudgetBytes > 0 {
		cfg.OnDemand = true
	}
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
	cfg.Numerics = mode.String()
	workers := cfg.Parallelism
	if workers == 0 {
		workers = 1
	}
	simOpts := []SimOption{withNumerics(mode), WithParallelism(workers)}
	s := &Server{
		cfg: cfg,
		batchCfg: serve.Config{
			MaxBatch:   cfg.MaxBatch,
			MaxDelay:   cfg.MaxDelay,
			QueueDepth: cfg.QueueDepth,
			SLO:        cfg.TargetP99,
		}.WithDefaults(),
		simOpts: simOpts,
		models:  make(map[string]*serverModel, len(benchmarks)),
	}
	for _, name := range benchmarks {
		if _, ok := s.models[name]; ok {
			continue
		}
		// Identity comes from the registry, not a loaded benchmark:
		// construction validates every name and kind without synthesizing
		// weights, so on-demand servers still fail fast on a bad name.
		net, err := networks.New(name)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("tango: %w", err)
		}
		m := &serverModel{
			name:       name,
			kind:       net.Kind,
			inputShape: net.InputShape,
			breaker:    resilience.NewBreaker(resilience.BreakerConfig{}),
		}
		switch net.Kind {
		case networks.KindCNN, networks.KindRNN:
		default:
			s.close()
			return nil, fmt.Errorf("tango: %s has unsupported kind %s", name, net.Kind)
		}
		m.inputLen = 1
		for _, d := range net.InputShape {
			m.inputLen *= d
		}
		s.models[name] = m
		s.order = append(s.order, name)
	}
	if !cfg.OnDemand {
		for _, name := range s.order {
			if _, err := s.engine(s.models[name]); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	return s, nil
}

// engine returns the model's loaded engine, loading it first if cold.
func (s *Server) engine(m *serverModel) (*modelEngine, error) {
	if e := m.eng.Load(); e != nil {
		return e, nil
	}
	return s.loadEngine(m)
}

// loadEngine performs the cold-start load of one model under the lifecycle
// lock: benchmark load, batch-geometry prewarm, batcher start, then budget
// enforcement (which may evict other idle models).
func (s *Server) loadEngine(m *serverModel) (*modelEngine, error) {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if e := m.eng.Load(); e != nil {
		return e, nil
	}
	if s.draining.Load() {
		return nil, fmt.Errorf("tango: %s: %w", m.name, ErrServerClosed)
	}
	b, err := LoadBenchmark(m.name)
	if err != nil {
		return nil, err
	}
	e := &modelEngine{bench: b}
	effMaxBatch := s.batchCfg.MaxBatch
	opts := s.simOpts
	switch m.kind {
	case networks.KindCNN:
		// Prewarm: resolve the plan and grow the scratch to the
		// configured batch geometry outside any request latency.
		image, _, err := b.SampleImage(0)
		if err != nil {
			return nil, fmt.Errorf("tango: prewarm %s: %w", m.name, err)
		}
		warm := make([][]float32, effMaxBatch)
		for i := range warm {
			warm[i] = image
		}
		if _, err := b.ClassifyBatch(warm, opts...); err != nil {
			return nil, fmt.Errorf("tango: prewarm %s: %w", m.name, err)
		}
		e.classify = serve.NewBatcher(s.batchCfg, func(images [][]float32) ([]BatchClassification, error) {
			return b.ClassifyBatch(images, opts...)
		})
	default:
		// Prewarm the batched recurrent path at full batch width.
		history, err := b.SampleHistory(0)
		if err != nil {
			return nil, fmt.Errorf("tango: prewarm %s: %w", m.name, err)
		}
		warm := make([][]float64, effMaxBatch)
		for i := range warm {
			warm[i] = history
		}
		if _, err := b.ForecastBatch(warm, opts...); err != nil {
			return nil, fmt.Errorf("tango: prewarm %s: %w", m.name, err)
		}
		e.forecast = serve.NewBatcher(s.batchCfg, func(histories [][]float64) ([]float64, error) {
			return forecastGrouped(b, histories, opts)
		})
	}
	m.eng.Store(e)
	m.loads.Add(1)
	s.enforceBudgetLocked(m)
	return e, nil
}

// enforceBudgetLocked evicts idle engines in least-recently-used order until
// the resident set fits the byte budget.  The just-loaded model (keep) and
// any model with in-flight or queued work are never evicted; if only active
// models remain, the budget is allowed to overshoot rather than stall
// serving.  Caller holds lifeMu.
func (s *Server) enforceBudgetLocked(keep *serverModel) {
	if s.cfg.ModelBudgetBytes <= 0 {
		return
	}
	for s.residentBytesLocked() > s.cfg.ModelBudgetBytes {
		var victim *serverModel
		for _, name := range s.order {
			m := s.models[name]
			if m == keep || m.eng.Load() == nil {
				continue
			}
			if m.inFlight.Load() != 0 {
				continue
			}
			if q, _ := m.eng.Load().queue(); q != 0 {
				continue
			}
			if victim == nil || m.lastUsed.Load() < victim.lastUsed.Load() {
				victim = m
			}
		}
		if victim == nil {
			return
		}
		s.evictLocked(victim)
	}
}

// evictLocked unloads one idle model: the engine pointer clears first (new
// requests re-load instead of racing the teardown), the batcher drains, and
// its final counters fold into the model's base stats so lifetime totals
// survive the eviction.  Caller holds lifeMu.
func (s *Server) evictLocked(m *serverModel) {
	e := m.eng.Load()
	if e == nil {
		return
	}
	m.eng.Store(nil)
	e.close()
	st := e.stats()
	m.statsMu.Lock()
	m.baseStats = serve.Merge(m.baseStats, st)
	m.statsMu.Unlock()
	m.evictions.Add(1)
}

// residentBytesLocked sums resident engine bytes.  Caller holds lifeMu (or
// tolerates a racy snapshot, as Stats does).
func (s *Server) residentBytesLocked() int64 {
	var total int64
	for _, name := range s.order {
		m := s.models[name]
		if e := m.eng.Load(); e != nil {
			total += e.bench.inner.MemStats().Total()
		}
	}
	return total
}

// forecastGrouped runs a formed forecast batch.  ForecastBatch requires
// equal-length histories (the recurrent gates advance the batch in
// lockstep), but independent requests may carry different lengths, so the
// batch is partitioned into equal-length groups, each run as one batched
// call.  On the default numerics tier grouping never changes numerics:
// batched results are bit-identical to per-sample Forecast however the
// batch is split.  On a fast tier a history's bits depend on whether its
// group holds one history (the mat-vec, equal to Forecast) or several (the
// GEMM, within tolerance).
func forecastGrouped(b *Benchmark, histories [][]float64, opts []SimOption) ([]float64, error) {
	n := len(histories)
	out := make([]float64, n)
	done := make([]bool, n)
	for i := 0; i < n; i++ {
		if done[i] {
			continue
		}
		steps := len(histories[i])
		idx := []int{i}
		for j := i + 1; j < n; j++ {
			if !done[j] && len(histories[j]) == steps {
				idx = append(idx, j)
			}
		}
		group := make([][]float64, len(idx))
		for k, j := range idx {
			group[k] = histories[j]
		}
		preds, err := b.ForecastBatch(group, opts...)
		if err != nil {
			return nil, err
		}
		for k, j := range idx {
			out[j] = preds[k]
			done[j] = true
		}
	}
	return out, nil
}

// Benchmarks returns the served benchmark names in configuration order.
func (s *Server) Benchmarks() []string { return append([]string(nil), s.order...) }

// errWrongKind is the single rejection for a request that reached a model
// through the wrong entry point (Classify on an RNN or Forecast on a CNN),
// shared by the embedding API and the HTTP seed path so both report the
// same wrapped ErrShape.
func (m *serverModel) errWrongKind(benchmark string) error {
	use := "Classify (/v1/classify)"
	if m.kind != networks.KindCNN {
		use = "Forecast (/v1/forecast)"
	}
	return fmt.Errorf("tango: %s is a %s benchmark; %w: use %s",
		benchmark, m.kind, ErrShape, use)
}

// sampleImage resolves the deterministic sample image for a seed-based
// classify request against a served CNN benchmark.
func (s *Server) sampleImage(benchmark string, seed uint64) ([]float32, error) {
	m, err := s.model(benchmark)
	if err != nil {
		return nil, err
	}
	if m.kind != networks.KindCNN {
		return nil, m.errWrongKind(benchmark)
	}
	e, err := s.engine(m)
	if err != nil {
		return nil, err
	}
	img, _, err := e.bench.SampleImage(seed)
	return img, err
}

// sampleHistory resolves the deterministic sample history for a seed-based
// forecast request against a served RNN benchmark.
func (s *Server) sampleHistory(benchmark string, seed uint64) ([]float64, error) {
	m, err := s.model(benchmark)
	if err != nil {
		return nil, err
	}
	if m.kind != networks.KindRNN {
		return nil, m.errWrongKind(benchmark)
	}
	e, err := s.engine(m)
	if err != nil {
		return nil, err
	}
	return e.bench.SampleHistory(seed)
}

// model resolves a served benchmark by name.
func (s *Server) model(name string) (*serverModel, error) {
	m, ok := s.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (serving %v)", ErrNotServed, name, s.order)
	}
	return m, nil
}

// submitRetries bounds how often a request re-loads and re-submits after
// losing the race with an engine eviction (the batcher closed between the
// pointer read and the enqueue).
const submitRetries = 3

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
	m, err := s.model(benchmark)
	if err != nil {
		return BatchClassification{}, err
	}
	if m.kind != networks.KindCNN {
		return BatchClassification{}, m.errWrongKind(benchmark)
	}
	if len(image) != m.inputLen {
		return BatchClassification{}, fmt.Errorf("tango: %s: %w: image has %d elements, want %d (input shape %v)",
			benchmark, ErrShape, len(image), m.inputLen, m.inputShape)
	}
	return submit(ctx, s, m, image, func(e *modelEngine) *serve.Batcher[[]float32, BatchClassification] { return e.classify })
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
	m, err := s.model(benchmark)
	if err != nil {
		return 0, err
	}
	if m.kind != networks.KindRNN {
		return 0, m.errWrongKind(benchmark)
	}
	if len(history) == 0 {
		return 0, fmt.Errorf("tango: %s: %w: empty history", benchmark, ErrShape)
	}
	return submit(ctx, s, m, history, func(e *modelEngine) *serve.Batcher[[]float64, float64] { return e.forecast })
}

// submit is the request path Classify and Forecast share once the shape is
// validated: admission, deadline budget, LRU touch, then load-and-enqueue on
// the batcher pick selects, re-loading when an eviction closed that batcher
// under the request.
func submit[Req, Res any](ctx context.Context, s *Server, m *serverModel, req Req,
	pick func(*modelEngine) *serve.Batcher[Req, Res]) (Res, error) {
	var res Res
	if err := s.admit(ctx, m); err != nil {
		return res, err
	}
	ctx, cancel := resilience.WithBudget(ctx, s.cfg.RequestTimeout)
	defer cancel()
	m.touch()
	m.inFlight.Add(1)
	var err error
	for attempt := 0; ; attempt++ {
		var e *modelEngine
		if e, err = s.engine(m); err != nil {
			break
		}
		if res, err = pick(e).Do(ctx, req); !s.retrySubmit(err, attempt) {
			break
		}
	}
	m.inFlight.Add(-1)
	m.recordOutcome(err)
	return res, err
}

// retrySubmit reports whether a failed submission should re-load the engine
// and try again: only when the batcher was closed under the request by an
// eviction (not a server drain), and only a bounded number of times.
func (s *Server) retrySubmit(err error, attempt int) bool {
	return errors.Is(err, serve.ErrClosed) && !s.draining.Load() && attempt < submitRetries
}

// touch stamps the model's LRU clock.
func (m *serverModel) touch() { m.lastUsed.Store(time.Now().UnixNano()) }

// Close stops accepting requests, serves everything already queued
// (graceful drain), and stops the scheduler goroutines.  It is idempotent.
// Requests submitted after Close begins fail with ErrServerClosed.
func (s *Server) Close() { s.close() }

func (s *Server) close() {
	s.draining.Store(true)
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	for _, name := range s.order {
		if e := s.models[name].eng.Load(); e != nil {
			e.close()
		}
	}
}

// BenchmarkServeStats is the per-benchmark slice of a Server stats snapshot.
// Latencies are end-to-end (queue wait + batch compute); the percentile pair
// is over a recent window, the histogram is cumulative since load (bucket
// upper bounds as on /metrics, final slot +Inf).  Counters span the
// model's lifetime: they survive engine eviction and reload.
type BenchmarkServeStats struct {
	Benchmark         string   `json:"benchmark"`
	Kind              string   `json:"kind"`
	Submitted         uint64   `json:"submitted"`
	Completed         uint64   `json:"completed"`
	Canceled          uint64   `json:"canceled"`
	RejectedQueueFull uint64   `json:"rejected_queue_full"`
	RejectedClosed    uint64   `json:"rejected_closed"`
	Batches           uint64   `json:"batches"`
	BatchErrors       uint64   `json:"batch_errors"`
	Bisections        uint64   `json:"bisections"`
	Isolated          uint64   `json:"isolated"`
	ShedLoad          uint64   `json:"shed_load"`
	ShedBreaker       uint64   `json:"shed_breaker"`
	InFlight          int64    `json:"in_flight"`
	QueueLen          int      `json:"queue_len"`
	QueueCap          int      `json:"queue_cap"`
	BreakerState      string   `json:"breaker_state"`
	MeanBatchSize     float64  `json:"mean_batch_size"`
	BatchSizeHist     []uint64 `json:"batch_size_hist"`
	LatencyP50Micros  float64  `json:"latency_p50_us"`
	LatencyP99Micros  float64  `json:"latency_p99_us"`
	LatencyHist       []uint64 `json:"latency_hist"`
	LatencySumMicros  float64  `json:"latency_sum_us"`
	// BatchWindowMicros is the batch window currently in effect: the fixed
	// MaxDelay, or the adaptive controller's live window under an SLO.
	BatchWindowMicros float64 `json:"batch_window_us"`
	// Resident reports whether the model's engine is currently loaded;
	// the byte fields break down its footprint (zero while cold).
	Resident      bool   `json:"resident"`
	ResidentBytes int64  `json:"resident_bytes"`
	WeightBytes   int64  `json:"weight_bytes"`
	PackedBytes   int64  `json:"packed_bytes"`
	ScratchBytes  int64  `json:"scratch_bytes"`
	Loads         uint64 `json:"loads"`
	Evictions     uint64 `json:"evictions"`
}

// ServerStats is a point-in-time snapshot of a Server's counters, served as
// JSON by GET /v1/stats and rendered as Prometheus text by GET /metrics.
type ServerStats struct {
	// Aggregates over every served benchmark.
	Requests          uint64  `json:"requests"`
	Completed         uint64  `json:"completed"`
	RejectedQueueFull uint64  `json:"rejected_queue_full"`
	Shed              uint64  `json:"shed"`
	InFlight          int64   `json:"in_flight"`
	Batches           uint64  `json:"batches"`
	MeanBatchSize     float64 `json:"mean_batch_size"`

	// Engine-level configuration and footprint.
	NumericsTier     string  `json:"numerics_tier"`
	TargetP99Micros  float64 `json:"target_p99_us,omitempty"`
	ModelBudgetBytes int64   `json:"model_budget_bytes,omitempty"`
	ResidentModels   int     `json:"resident_models"`
	ResidentBytes    int64   `json:"resident_bytes"`

	Benchmarks map[string]BenchmarkServeStats `json:"benchmarks"`
}

// batcherStats returns the model's lifetime scheduler stats: the live
// engine's snapshot (when resident) merged onto the counters carried over
// from evicted engines.
func (m *serverModel) batcherStats() serve.Stats {
	m.statsMu.Lock()
	base := m.baseStats
	m.statsMu.Unlock()
	if e := m.eng.Load(); e != nil {
		return serve.Merge(base, e.stats())
	}
	return serve.Merge(base, serve.Stats{})
}

// Stats snapshots the server's counters: request totals, rejections,
// batches formed, batch-size and latency histograms, latency percentiles,
// adaptive batch windows and per-model residency.
func (s *Server) Stats() ServerStats {
	out := ServerStats{
		NumericsTier:     s.cfg.Numerics,
		TargetP99Micros:  float64(s.batchCfg.SLO) / float64(time.Microsecond),
		ModelBudgetBytes: s.cfg.ModelBudgetBytes,
		Benchmarks:       make(map[string]BenchmarkServeStats, len(s.models)),
	}
	var batchedRequests uint64
	for _, name := range s.order {
		m := s.models[name]
		st := m.batcherStats()
		shedLoad, shedBreaker := m.shedLoad.Load(), m.shedBreaker.Load()
		inFlight := m.inFlight.Load()
		q, c := s.queueState(m)
		bs := BenchmarkServeStats{
			Benchmark:         name,
			Kind:              m.kind.String(),
			Submitted:         st.Submitted,
			Completed:         st.Completed,
			Canceled:          st.Canceled,
			RejectedQueueFull: st.RejectedQueueFull,
			RejectedClosed:    st.RejectedClosed,
			Batches:           st.Batches,
			BatchErrors:       st.BatchErrors,
			Bisections:        st.Bisections,
			Isolated:          st.Isolated,
			ShedLoad:          shedLoad,
			ShedBreaker:       shedBreaker,
			InFlight:          inFlight,
			QueueLen:          q,
			QueueCap:          c,
			BreakerState:      m.breaker.State().String(),
			MeanBatchSize:     st.MeanBatchSize,
			BatchSizeHist:     st.BatchSizeHist,
			LatencyP50Micros:  float64(st.LatencyP50) / float64(time.Microsecond),
			LatencyP99Micros:  float64(st.LatencyP99) / float64(time.Microsecond),
			LatencyHist:       st.LatencyHist,
			LatencySumMicros:  float64(st.LatencySum) / float64(time.Microsecond),
			BatchWindowMicros: float64(st.CurrentDelay) / float64(time.Microsecond),
			Loads:             m.loads.Load(),
			Evictions:         m.evictions.Load(),
		}
		if e := m.eng.Load(); e != nil {
			ms := e.bench.inner.MemStats()
			bs.Resident = true
			bs.WeightBytes = ms.WeightBytes
			bs.PackedBytes = ms.PackedBytes
			bs.ScratchBytes = ms.ScratchBytes
			bs.ResidentBytes = ms.Total()
			out.ResidentModels++
			out.ResidentBytes += bs.ResidentBytes
		}
		out.Benchmarks[name] = bs
		out.Requests += st.Submitted
		out.Completed += st.Completed
		out.RejectedQueueFull += st.RejectedQueueFull
		out.Shed += shedLoad + shedBreaker
		out.InFlight += inFlight
		out.Batches += st.Batches
		// Every completed request went through exactly one executed batch,
		// so Completed is also the batched-request total.
		batchedRequests += st.Completed
	}
	if out.Batches > 0 {
		out.MeanBatchSize = float64(batchedRequests) / float64(out.Batches)
	}
	return out
}

// queueState returns the model's request-queue length and capacity; a cold
// model has an empty queue at the configured capacity.
func (s *Server) queueState(m *serverModel) (int, int) {
	if e := m.eng.Load(); e != nil {
		return e.queue()
	}
	return 0, s.batchCfg.QueueDepth
}
