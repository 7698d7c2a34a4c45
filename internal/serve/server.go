package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/core"
	"tango/internal/networks"
	"tango/internal/resilience"
	"tango/internal/tensor"
)

// This file is the model lifecycle behind tango.Server: one batcher per
// served benchmark, so concurrent independent Classify / Forecast requests
// are coalesced into the library's ClassifyBatch / ForecastBatch.
//
// Each served benchmark separates cheap identity (name, kind, input shape —
// resolved at construction from the network registry) from its expensive
// engine (the loaded Model and its running batcher).  The engine loads
// eagerly by default, on demand under Options.OnDemand, and is evicted in LRU
// order when an Options.ModelBudgetBytes budget is exceeded.  A model's
// counters live in one collector that every engine it loads counts into, so
// they survive eviction and reload.

var (
	// ErrNotServed reports a request naming a benchmark the Server was not
	// configured to serve.
	ErrNotServed = errors.New("tango: benchmark not served")

	// ErrDegraded reports a request rejected because the benchmark's
	// circuit breaker is open.
	ErrDegraded = errors.New("tango: serving degraded, circuit breaker open")
)

// Classification is one image's result: the arg-max class and the softmax
// output over all classes.
type Classification struct {
	// Class is the arg-max class index.
	Class int
	// Probabilities is the softmax output over all classes.
	Probabilities []float32
}

// Model is one loaded benchmark as a Server runs it: the library's batched
// entry points and sample inputs, bound to one benchmark and numerics tier.
// A CNN needs the image pair, an RNN the history pair.
type Model struct {
	ClassifyBatch func(images [][]float32) ([]Classification, error)
	SampleImage   func(seed uint64) ([]float32, error)
	ForecastBatch func(histories [][]float64) ([]float64, error)
	SampleHistory func(seed uint64) ([]float64, error)
	// MemStats reports the loaded benchmark's resident bytes.
	MemStats func() core.MemStats
}

// Options configures a Server; tango.NewServer fills it from a
// tango.ServerConfig, where each setting is documented.
type Options struct {
	// Batch is every model's batching policy.
	Batch            Config
	RequestTimeout   time.Duration
	ModelBudgetBytes int64
	OnDemand         bool
	// Numerics names the tier Load binds, as Stats and /metrics report it.
	Numerics string
	// Load loads one benchmark's engine.
	Load func(name string) (*Model, error)
}

// Server coalesces concurrent inference requests into batched engine runs.
type Server struct {
	// opts is the resolved configuration: Batch is defaulted and a model
	// budget has set OnDemand.
	opts   Options
	models map[string]*model
	order  []*model
	// lifeMu serializes engine load and evict transitions across all
	// models, so budget accounting sees a consistent resident set.
	lifeMu sync.Mutex
	// draining flips once Close begins; /healthz reports it so load
	// balancers stop routing here while queued work finishes.
	draining atomic.Bool
}

// model is one served benchmark: its registry identity (always present)
// plus a loadable engine and the state that outlives engine evictions —
// counters, circuit breaker and in-flight gauge.
type model struct {
	name       string
	kind       networks.Kind
	inputShape []int
	inputLen   int

	// eng is the loaded engine, nil while cold.  Load/evict transitions
	// are serialized by Server.lifeMu; readers take the pointer lock-free.
	eng atomic.Pointer[engine]
	// stats is the model's one collector: every batcher it loads counts
	// into it, and admission counts its sheds there.
	stats *collector
	// lastUsed is the unix-nano admission timestamp driving LRU eviction.
	lastUsed  atomic.Int64
	loads     atomic.Uint64
	evictions atomic.Uint64

	// breaker trips after consecutive engine failures so a broken backend
	// fails fast (ErrDegraded) instead of queueing doomed work.
	breaker *resilience.Breaker
	// inFlight counts admitted requests that have not yet resolved.
	inFlight atomic.Int64
}

// engine is the expensive, evictable half of a served benchmark: the loaded
// Model and its running batcher, a *Batcher[[]float32, Classification] for
// a CNN or a *Batcher[[]float64, float64] for an RNN.
type engine struct {
	*Model
	batcher
}

// batcher is what the lifecycle asks of a Batcher whatever it batches.
type batcher interface {
	Close()
	QueueLen() int
	QueueCap() int
	Delay() time.Duration
}

// NewServer validates and registers the named benchmarks and, unless
// opts.OnDemand, loads every engine: weights, resolved plan and scratch
// grown to the batch geometry, so the first request is served at
// steady-state speed.  The caller must Close the server to stop the
// batchers' goroutines.
func NewServer(benchmarks []string, opts Options) (*Server, error) {
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("tango: NewServer needs at least one benchmark")
	}
	if opts.ModelBudgetBytes > 0 {
		opts.OnDemand = true
	}
	opts.Batch = opts.Batch.WithDefaults()
	s := &Server{opts: opts, models: make(map[string]*model, len(benchmarks))}
	for _, name := range benchmarks {
		if _, ok := s.models[name]; ok {
			continue
		}
		// Identity comes from the registry, not a loaded benchmark:
		// construction validates every name and kind without synthesizing
		// weights, so on-demand servers still fail fast on a bad name.
		net, err := networks.New(name)
		if err != nil {
			return nil, fmt.Errorf("tango: %w", err)
		}
		if net.Kind != networks.KindCNN && net.Kind != networks.KindRNN {
			return nil, fmt.Errorf("tango: %s has unsupported kind %s", name, net.Kind)
		}
		m := &model{
			name:       name,
			kind:       net.Kind,
			inputShape: net.InputShape,
			inputLen:   1,
			stats:      new(collector),
			breaker:    resilience.NewBreaker(nil),
		}
		for _, d := range net.InputShape {
			m.inputLen *= d
		}
		s.models[name] = m
		s.order = append(s.order, m)
	}
	if !opts.OnDemand {
		for _, m := range s.order {
			if _, err := s.engine(m); err != nil {
				s.Close()
				return nil, err
			}
		}
	}
	return s, nil
}

// engine returns the model's loaded engine, loading it first if cold.
func (s *Server) engine(m *model) (*engine, error) {
	if e := m.eng.Load(); e != nil {
		return e, nil
	}
	return s.load(m)
}

// load performs the cold-start load of one model under the lifecycle lock:
// benchmark load, batch-geometry prewarm, batcher start, then budget
// enforcement (which may evict other idle models).
func (s *Server) load(m *model) (*engine, error) {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if e := m.eng.Load(); e != nil {
		return e, nil
	}
	if s.draining.Load() {
		return nil, fmt.Errorf("tango: %s: %w", m.name, ErrClosed)
	}
	l, err := s.opts.Load(m.name)
	if err != nil {
		return nil, err
	}
	e := &engine{Model: l}
	if m.kind == networks.KindCNN {
		e.batcher, err = start(s.opts.Batch, m.stats, l.SampleImage, l.ClassifyBatch)
	} else {
		e.batcher, err = start(s.opts.Batch, m.stats, l.SampleHistory, func(histories [][]float64) ([]float64, error) {
			return forecastGrouped(l.ForecastBatch, histories)
		})
	}
	if err != nil {
		return nil, fmt.Errorf("tango: prewarm %s: %w", m.name, err)
	}
	m.eng.Store(e)
	m.loads.Add(1)
	s.enforceBudgetLocked(m)
	return e, nil
}

// start prewarms a model, running a full batch of sample 0 so the plan
// resolves and the scratch grows outside any request's latency, and starts
// the batcher that runs it.
func start[In, Out any](cfg Config, stats *collector, sample func(uint64) (In, error), run func([]In) ([]Out, error)) (batcher, error) {
	in, err := sample(0)
	if err != nil {
		return nil, err
	}
	warm := make([]In, cfg.MaxBatch)
	for i := range warm {
		warm[i] = in
	}
	if _, err := run(warm); err != nil {
		return nil, err
	}
	return newBatcher(cfg, run, stats), nil
}

// enforceBudgetLocked evicts idle engines in least-recently-used order until
// the resident set fits the byte budget.  The just-loaded model (keep) and
// any model with in-flight or queued work are never evicted; if only active
// models remain, the budget is allowed to overshoot rather than stall
// serving.  Caller holds lifeMu.
func (s *Server) enforceBudgetLocked(keep *model) {
	if s.opts.ModelBudgetBytes <= 0 {
		return
	}
	for s.residentBytes() > s.opts.ModelBudgetBytes {
		var victim *model
		for _, m := range s.order {
			e := m.eng.Load()
			if m == keep || e == nil || m.inFlight.Load() != 0 || e.QueueLen() != 0 {
				continue
			}
			if victim == nil || m.lastUsed.Load() < victim.lastUsed.Load() {
				victim = m
			}
		}
		if victim == nil {
			return
		}
		// The engine pointer clears first, so new requests re-load instead
		// of racing the teardown; the batcher then drains into the model's
		// collector.
		e := victim.eng.Swap(nil)
		e.Close()
		victim.evictions.Add(1)
	}
}

// residentBytes sums resident engine bytes.  Callers hold lifeMu or
// tolerate a racy snapshot, as Stats does.
func (s *Server) residentBytes() int64 {
	var total int64
	for _, m := range s.order {
		if e := m.eng.Load(); e != nil {
			total += e.MemStats().Total()
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
func forecastGrouped(forecastBatch func([][]float64) ([]float64, error), histories [][]float64) ([]float64, error) {
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
		preds, err := forecastBatch(group)
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
func (s *Server) Benchmarks() []string {
	names := make([]string, len(s.order))
	for i, m := range s.order {
		names[i] = m.name
	}
	return names
}

// model resolves a served benchmark by name and checks that it is of the
// kind the entry point serves.
func (s *Server) model(name string, kind networks.Kind) (*model, error) {
	m, ok := s.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (serving %v)", ErrNotServed, name, s.Benchmarks())
	}
	if m.kind != kind {
		use := "Classify (/v1/classify)"
		if m.kind != networks.KindCNN {
			use = "Forecast (/v1/forecast)"
		}
		return nil, fmt.Errorf("tango: %s is a %s benchmark; %w: use %s", name, m.kind, tensor.ErrShape, use)
	}
	return m, nil
}

// loaded resolves a served benchmark of the given kind and returns its
// engine, loading it if cold: the seed-based HTTP requests read their
// sample input from it.
func (s *Server) loaded(name string, kind networks.Kind) (*engine, error) {
	m, err := s.model(name, kind)
	if err != nil {
		return nil, err
	}
	return s.engine(m)
}

// submitRetries bounds how often a request re-loads and re-submits after
// losing the race with an engine eviction (the batcher closed between the
// pointer read and the enqueue).
const submitRetries = 3

// Classify submits one image to a served CNN benchmark; see
// tango.Server.Classify.
func (s *Server) Classify(ctx context.Context, benchmark string, image []float32) (Classification, error) {
	m, err := s.model(benchmark, networks.KindCNN)
	if err != nil {
		return Classification{}, err
	}
	if len(image) != m.inputLen {
		return Classification{}, fmt.Errorf("tango: %s: %w: image has %d elements, want %d (input shape %v)",
			benchmark, tensor.ErrShape, len(image), m.inputLen, m.inputShape)
	}
	return submit[[]float32, Classification](ctx, s, m, image)
}

// Forecast submits one history to a served RNN benchmark; see
// tango.Server.Forecast.
func (s *Server) Forecast(ctx context.Context, benchmark string, history []float64) (float64, error) {
	m, err := s.model(benchmark, networks.KindRNN)
	if err != nil {
		return 0, err
	}
	if len(history) == 0 {
		return 0, fmt.Errorf("tango: %s: %w: empty history", benchmark, tensor.ErrShape)
	}
	return submit[[]float64, float64](ctx, s, m, history)
}

// submit is the request path Classify and Forecast share once the shape is
// validated: admission, deadline budget, LRU touch, then load-and-enqueue,
// re-loading when an eviction closed the batcher under the request.
func submit[Req, Res any](ctx context.Context, s *Server, m *model, req Req) (Res, error) {
	var res Res
	if err := s.admit(ctx, m); err != nil {
		return res, err
	}
	ctx, cancel := resilience.WithBudget(ctx, s.opts.RequestTimeout)
	defer cancel()
	m.lastUsed.Store(time.Now().UnixNano())
	m.inFlight.Add(1)
	var err error
	for attempt := 0; ; attempt++ {
		var e *engine
		if e, err = s.engine(m); err != nil {
			break
		}
		res, err = e.batcher.(*Batcher[Req, Res]).Do(ctx, req)
		if !errors.Is(err, ErrClosed) || s.draining.Load() || attempt >= submitRetries {
			break
		}
	}
	m.inFlight.Add(-1)
	m.recordOutcome(err)
	return res, err
}

// Close stops accepting requests, serves everything already queued
// (graceful drain), and stops the batchers.  It is idempotent.
func (s *Server) Close() {
	s.draining.Store(true)
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	for _, m := range s.order {
		if e := m.eng.Load(); e != nil {
			e.Close()
		}
	}
}

// SetBreakerClock gives every model a fresh circuit breaker on the clock
// now.  It is for tests, on a server that has served no request yet.
func (s *Server) SetBreakerClock(now func() time.Time) {
	for _, m := range s.order {
		m.breaker = resilience.NewBreaker(now)
	}
}

// BenchmarkServeStats is the per-benchmark slice of a Server stats snapshot.
// Latencies are end-to-end (queue wait + batch compute); the percentile pair
// is over a recent window, the histogram is cumulative since load (bucket
// upper bounds as on /metrics, final slot +Inf).  Counters span the model's
// lifetime: they survive engine eviction and reload.
type BenchmarkServeStats struct {
	Benchmark string `json:"benchmark"`
	Kind      string `json:"kind"`
	Counters
	InFlight         int64    `json:"in_flight"`
	QueueLen         int      `json:"queue_len"`
	QueueCap         int      `json:"queue_cap"`
	BreakerState     string   `json:"breaker_state"`
	MeanBatchSize    float64  `json:"mean_batch_size"`
	BatchSizeHist    []uint64 `json:"batch_size_hist"`
	LatencyP50Micros float64  `json:"latency_p50_us"`
	LatencyP99Micros float64  `json:"latency_p99_us"`
	LatencyHist      []uint64 `json:"latency_hist"`
	LatencySumMicros float64  `json:"latency_sum_us"`
	// BatchWindowMicros is the batch window currently in effect: the fixed
	// MaxDelay, or the adaptive controller's live window under an SLO.
	BatchWindowMicros float64 `json:"batch_window_us"`
	// Resident reports whether the model's engine is currently loaded;
	// ResidentBytes and MemStats break down its footprint (zero while cold).
	Resident      bool  `json:"resident"`
	ResidentBytes int64 `json:"resident_bytes"`
	core.MemStats
	Loads     uint64 `json:"loads"`
	Evictions uint64 `json:"evictions"`
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

// micros converts a duration to the microseconds the stats report.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Stats snapshots the server's counters: request totals, rejections,
// batches formed, batch-size and latency histograms, latency percentiles,
// adaptive batch windows and per-model residency.
func (s *Server) Stats() ServerStats {
	out := ServerStats{
		NumericsTier:     s.opts.Numerics,
		TargetP99Micros:  micros(s.opts.Batch.SLO),
		ModelBudgetBytes: s.opts.ModelBudgetBytes,
		Benchmarks:       make(map[string]BenchmarkServeStats, len(s.order)),
	}
	for _, m := range s.order {
		st := m.stats.snapshot()
		bs := BenchmarkServeStats{
			Benchmark:        m.name,
			Kind:             m.kind.String(),
			Counters:         st.Counters,
			InFlight:         m.inFlight.Load(),
			BreakerState:     m.breaker.State().String(),
			MeanBatchSize:    st.MeanBatchSize,
			BatchSizeHist:    st.BatchSizeHist,
			LatencyP50Micros: micros(st.LatencyP50),
			LatencyP99Micros: micros(st.LatencyP99),
			LatencyHist:      st.LatencyHist,
			LatencySumMicros: micros(st.LatencySum),
			Loads:            m.loads.Load(),
			Evictions:        m.evictions.Load(),
		}
		bs.QueueLen, bs.QueueCap = s.queueState(m)
		if e := m.eng.Load(); e != nil {
			bs.BatchWindowMicros = micros(e.Delay())
			bs.Resident = true
			bs.MemStats = e.MemStats()
			bs.ResidentBytes = bs.MemStats.Total()
			out.ResidentModels++
			out.ResidentBytes += bs.ResidentBytes
		}
		out.Benchmarks[m.name] = bs
		out.Requests += st.Submitted
		out.Completed += st.Completed
		out.RejectedQueueFull += st.RejectedQueueFull
		out.Shed += st.ShedLoad + st.ShedBreaker
		out.InFlight += bs.InFlight
		out.Batches += st.Batches
	}
	if out.Batches > 0 {
		// Every completed request went through exactly one executed batch.
		out.MeanBatchSize = float64(out.Completed) / float64(out.Batches)
	}
	return out
}

// queueState returns the model's request-queue length and capacity; a cold
// model has an empty queue at the configured capacity.
func (s *Server) queueState(m *model) (int, int) {
	if e := m.eng.Load(); e != nil {
		return e.QueueLen(), e.QueueCap()
	}
	return 0, s.opts.Batch.QueueDepth
}
