package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"tango/internal/distcache"
	"tango/internal/resilience"
	"tango/internal/target"
)

// PoolConfig tunes a coordinator's worker pool.
type PoolConfig struct {
	// Attempts is how many times one cell fetch is tried against its
	// worker before the caller falls back to local execution; values below
	// 1 select 2 (one retry).
	Attempts int
	// Client issues the HTTP requests; nil selects http.DefaultClient.
	// Per-request deadlines come from the caller's context.
	Client *http.Client
}

// workerClient is one remote worker: its base URL plus the circuit
// breaker that sheds calls to it while it is failing.
type workerClient struct {
	addr    string
	base    string
	breaker *resilience.Breaker
}

// Pool is a coordinator's view of its workers.  Fetch shards cells by
// index (round-robin), so for a fixed worker list every cell has one home
// worker and a warm worker-side cache is hit deterministically.  All
// methods are safe for concurrent use.
type Pool struct {
	cfg     PoolConfig
	workers []*workerClient
}

// NewPool returns a pool over the given worker addresses (host:port or
// full http:// URLs).
func NewPool(addrs []string, cfg PoolConfig) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("coord: no worker addresses")
	}
	if cfg.Attempts < 1 {
		cfg.Attempts = 2
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	p := &Pool{cfg: cfg}
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		base := addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		p.workers = append(p.workers, &workerClient{
			addr:    addr,
			base:    strings.TrimRight(base, "/"),
			breaker: resilience.NewBreaker(nil),
		})
	}
	if len(p.workers) == 0 {
		return nil, fmt.Errorf("coord: no worker addresses")
	}
	return p, nil
}

// Len returns the number of workers.
func (p *Pool) Len() int { return len(p.workers) }

// Fetch runs one cell on its home worker (cell index modulo pool size)
// and decodes the returned record against the coordinator's trace.  Any
// failure — breaker open, transport error, worker-side failure, key or
// trace mismatch — is returned for the caller to fall back on local
// execution; Fetch itself never computes.
func (p *Pool) Fetch(ctx context.Context, idx int, t target.Target, network string, v target.Variant, tr *target.Trace) (*target.RunStats, error) {
	w := p.workers[idx%len(p.workers)]
	if err := w.breaker.Allow(); err != nil {
		return nil, fmt.Errorf("coord: worker %s: %w", w.addr, err)
	}
	key := target.RunKey(t, network, v)
	var rs *target.RunStats
	err := resilience.Retry(ctx, resilience.Backoff{Attempts: p.cfg.Attempts}, func(ctx context.Context) error {
		var err error
		rs, err = p.fetchOnce(ctx, w, key, t, network, v, tr)
		return err
	})
	if err != nil && ctx.Err() != nil {
		// The caller gave up; the worker got no fair shot at the call, so
		// the breaker must not count it either way.
		w.breaker.Forgive()
		return nil, err
	}
	w.breaker.Record(err)
	if err != nil {
		return nil, fmt.Errorf("coord: worker %s: %w", w.addr, err)
	}
	return rs, nil
}

// fetchOnce is one HTTP round trip: POST the cell request, decode and
// verify the returned record.
func (p *Pool) fetchOnce(ctx context.Context, w *workerClient, key string, t target.Target, network string, v target.Variant, tr *target.Trace) (*target.RunStats, error) {
	body, err := json.Marshal(CellRequest{
		Key:     key,
		Network: network,
		Target:  t.Name(),
		Variant: WireVariant(v),
	})
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+CellPath, bytes.NewReader(body))
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(data))
		if len(msg) > 300 {
			msg = msg[:300] + "..."
		}
		return nil, fmt.Errorf("cell %s: HTTP %d: %s", v.Key(), resp.StatusCode, msg)
	}
	return distcache.Decode(data, key, tr)
}
