// Package coord is retained solely for benchmark/trace_sim.go's
// coord.cell_roundtrip_ms metric: it has no product caller, and is to be
// deleted with ROADMAP item 2 (the [benchmark] PR).
//
// It implements the distributed characterization sweep: a
// coordinator shards the {network × target × variant} cell matrix across
// worker processes that serve cells over HTTP, and merges the returned
// results into the same deterministic dataset a single-process sweep
// produces.
//
// The protocol is one POST per cell.  The request names the cell by its
// content-addressed run key (target.RunKey) plus the registry name,
// network and variant needed to recompute it; the response body is the
// distcache record encoding of the result (the disk-cache and wire
// formats are the same versioned schema).  The worker recomputes the key
// from its own registry and refuses mismatches, so a coordinator and a
// worker built from different device tables can never silently exchange
// wrong results — the coordinator just falls back to local execution.
//
// Worker-side, cells run through a serve.Batcher (bounded queue, fast
// 429 rejection when full, graceful drain on shutdown) fanned out over a
// par worker pool.  Coordinator-side, each worker is wrapped in a
// resilience circuit breaker and bounded retry; any per-cell failure —
// connection refused, breaker open, queue full, key mismatch, corrupt
// response — falls back to computing the cell locally, so a dead worker
// degrades throughput, never correctness.  Every result, remote or
// local, enters the two-tier run cache through the same store path.
package coord

import (
	"tango/internal/gpusim"
	"tango/internal/sched"
	"tango/internal/target"
)

// CellRequest is the wire form of one sweep-cell assignment.
type CellRequest struct {
	// Key is the coordinator's content-addressed run key for the cell.
	// The worker recomputes the key from its own registry and rejects the
	// request if they differ (mismatched builds or device tables).
	Key string `json:"key"`
	// Network and Target name the cell; Target is a registry name.
	Network string `json:"network"`
	Target  string `json:"target"`
	// Variant is the cell's configuration point.
	Variant CellVariant `json:"variant"`
}

// CellVariant is target.Variant flattened for the wire.
type CellVariant struct {
	L1Bytes      int    `json:"l1_bytes"`
	L1Set        bool   `json:"l1_set"`
	Scheduler    string `json:"scheduler"`
	MaxCTAs      int    `json:"max_ctas"`
	MaxLoopIters int    `json:"max_loop_iters"`
}

// WireVariant flattens a variant for a CellRequest.
func WireVariant(v target.Variant) CellVariant {
	return CellVariant{
		L1Bytes:      v.L1Bytes,
		L1Set:        v.L1Set,
		Scheduler:    string(v.Scheduler),
		MaxCTAs:      v.Sampling.MaxCTAs,
		MaxLoopIters: v.Sampling.MaxLoopIters,
	}
}

// Variant rebuilds the target.Variant a CellVariant describes.
func (cv CellVariant) Variant() target.Variant {
	return target.Variant{
		L1Bytes:   cv.L1Bytes,
		L1Set:     cv.L1Set,
		Scheduler: sched.Kind(cv.Scheduler),
		Sampling:  gpusim.Sampling{MaxCTAs: cv.MaxCTAs, MaxLoopIters: cv.MaxLoopIters},
	}
}
