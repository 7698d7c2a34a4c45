package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"

	"tango/internal/distcache"
	"tango/internal/par"
	"tango/internal/serve"
	"tango/internal/target"
)

// CellPath and HealthPath are the worker's HTTP endpoints.
const (
	CellPath   = "/v1/cell"
	HealthPath = "/healthz"
)

// cellOut is the worker-side terminal state of one cell: the encoded
// record on success, the failure message otherwise.  Per-cell failures
// ride inside the batch result — one poisoned cell must not fail the
// batch it shared a queue flush with.
type cellOut struct {
	data []byte
	err  string
}

// Worker serves sweep cells over HTTP.  Cells enter a serve.Batcher —
// the same bounded-queue/backpressure scheduler behind tango-serve — and
// each flushed batch fans out over a par worker pool, so a worker's
// concurrency is bounded and a full queue rejects fast with 429 instead
// of stacking goroutines.  Every cell runs through the worker's own
// store, so a worker pointed at a cache directory serves repeated cells
// from cache.
type Worker struct {
	reg     *target.Registry
	store   *target.Store
	batcher *serve.Batcher[CellRequest, cellOut]
}

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Registry resolves target names; nil selects target.Builtin().
	Registry *target.Registry
	// Store caches the worker's traces and runs; nil selects the
	// process-wide target.Shared().
	Store *target.Store
	// Parallelism bounds concurrent cell computations; values below 1
	// select GOMAXPROCS.
	Parallelism int
	// QueueDepth bounds the cell queue; values below 1 use the serve
	// default.
	QueueDepth int
}

// NewWorker starts a worker with the given policy.  Callers must Close it
// to drain the queue and stop the scheduler.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Registry == nil {
		cfg.Registry = target.Builtin()
	}
	if cfg.Store == nil {
		cfg.Store = target.Shared()
	}
	if cfg.Parallelism < 1 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	w := &Worker{reg: cfg.Registry, store: cfg.Store}
	w.batcher = serve.NewBatcher(serve.Config{
		MaxBatch:   cfg.Parallelism,
		QueueDepth: cfg.QueueDepth,
	}, func(reqs []CellRequest) ([]cellOut, error) {
		outs := make([]cellOut, len(reqs))
		// Cells are independent; fan them out and always report batch
		// success so a failed cell degrades only its own slot (the error
		// travels in cellOut, not up through the batcher's bisection).
		par.ForEach(cfg.Parallelism, len(reqs), func(i int) error {
			outs[i] = w.runCell(reqs[i])
			return nil
		})
		return outs, nil
	})
	return w
}

// runCell resolves, verifies and computes one cell, returning the encoded
// record or the failure message.
func (w *Worker) runCell(req CellRequest) cellOut {
	t, err := w.reg.Lookup(req.Target)
	if err != nil {
		return cellOut{err: err.Error()}
	}
	v := req.Variant.Variant()
	key := target.RunKey(t, req.Network, v)
	if key != req.Key {
		return cellOut{err: fmt.Sprintf(
			"coord: key mismatch for %s on %s (%s): coordinator and worker disagree on the cell's content key (different builds or device tables?)",
			req.Network, req.Target, v.Key())}
	}
	rs, err := w.store.Run(t, req.Network, v)
	if err != nil {
		return cellOut{err: err.Error()}
	}
	data, err := distcache.Encode(key, rs)
	if err != nil {
		return cellOut{err: err.Error()}
	}
	return cellOut{data: data}
}

// ServeHTTP routes the worker's endpoints: POST CellPath runs one cell
// and returns its encoded record; GET HealthPath reports liveness.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case HealthPath:
		rw.WriteHeader(http.StatusOK)
		fmt.Fprintln(rw, "ok")
	case CellPath:
		w.serveCell(rw, r)
	default:
		http.NotFound(rw, r)
	}
}

func (w *Worker) serveCell(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req CellRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, "bad cell request: "+err.Error(), http.StatusBadRequest)
		return
	}
	out, err := w.batcher.Do(r.Context(), req)
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		http.Error(rw, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, serve.ErrClosed):
		http.Error(rw, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	case out.err != "":
		http.Error(rw, out.err, http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.Write(out.data)
}

// Store returns the worker's run store (for stats reporting).
func (w *Worker) Store() *target.Store { return w.store }

// Close drains the cell queue and stops the scheduler.
func (w *Worker) Close() { w.batcher.Close() }
