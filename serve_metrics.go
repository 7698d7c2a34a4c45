package tango

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tango/internal/serve"
)

// This file renders a ServerStats snapshot in the Prometheus text exposition
// format (version 0.0.4), hand-rolled over the stdlib so GET /metrics is
// scrapeable with zero dependencies.  The snapshot renderer is a pure
// function of its input — same stats in, same bytes out, with sorted
// benchmark rows and a fixed family order — so the format is golden-testable;
// live process series (goroutines, allocator stats) are appended separately
// and excluded from the golden.

// prometheusContentType is the exposition-format content type served by
// GET /metrics.
const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promWriter accumulates exposition text one family at a time.
type promWriter struct {
	b strings.Builder
}

// family emits the # HELP / # TYPE header of a metric family.
func (w *promWriter) family(name, typ, help string) {
	w.b.WriteString("# HELP ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(help)
	w.b.WriteString("\n# TYPE ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(typ)
	w.b.WriteByte('\n')
}

// sample emits one series line: name{labels} value.  Labels are
// key(,value) pairs in the given order; values are escaped per the format
// (backslash, double quote, newline).
func (w *promWriter) sample(name string, labels []string, value string) {
	w.b.WriteString(name)
	if len(labels) > 0 {
		w.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				w.b.WriteByte(',')
			}
			w.b.WriteString(labels[i])
			w.b.WriteString(`="`)
			w.b.WriteString(escapeLabel(labels[i+1]))
			w.b.WriteByte('"')
		}
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
	w.b.WriteString(value)
	w.b.WriteByte('\n')
}

// escapeLabel escapes a label value per the text format: backslash, double
// quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func promUint(v uint64) string { return strconv.FormatUint(v, 10) }
func promInt(v int64) string   { return strconv.FormatInt(v, 10) }
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promSeconds renders a duration as seconds, the unit every Prometheus time
// series uses.
func promSeconds(d time.Duration) string { return promFloat(d.Seconds()) }

// perBenchCounter emits one counter family with a benchmark label, one row
// per served benchmark in sorted order.
func perBenchCounter(w *promWriter, names []string, st ServerStats, name, help string, get func(BenchmarkServeStats) uint64) {
	w.family(name, "counter", help)
	for _, n := range names {
		w.sample(name, []string{"benchmark", n}, promUint(get(st.Benchmarks[n])))
	}
}

// perBenchGauge emits one gauge family with a benchmark label.
func perBenchGauge(w *promWriter, names []string, st ServerStats, name, help string, get func(BenchmarkServeStats) string) {
	w.family(name, "gauge", help)
	for _, n := range names {
		w.sample(name, []string{"benchmark", n}, get(st.Benchmarks[n]))
	}
}

// appendServerMetrics renders the snapshot half of GET /metrics.  It is a
// pure function of the snapshot: benchmark rows sort by name, families come
// in a fixed order, and no clock or process state is read.
func appendServerMetrics(w *promWriter, st ServerStats) {
	names := make([]string, 0, len(st.Benchmarks))
	for n := range st.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)

	w.family("tango_server_info", "gauge", "Serving configuration; value is always 1.")
	w.sample("tango_server_info", []string{"numerics", st.NumericsTier}, "1")
	if st.TargetP99Micros > 0 {
		w.family("tango_slo_target_seconds", "gauge", "Per-request p99 latency SLO driving adaptive batching.")
		w.sample("tango_slo_target_seconds", nil, promFloat(st.TargetP99Micros/1e6))
	}
	if st.ModelBudgetBytes > 0 {
		w.family("tango_model_budget_bytes", "gauge", "Resident-engine byte budget; exceeding it evicts idle models LRU-first.")
		w.sample("tango_model_budget_bytes", nil, promInt(st.ModelBudgetBytes))
	}
	w.family("tango_resident_models", "gauge", "Served models whose engine is currently loaded.")
	w.sample("tango_resident_models", nil, promInt(int64(st.ResidentModels)))
	w.family("tango_resident_bytes", "gauge", "Total resident engine bytes (weights + packed panels + scratch high-water).")
	w.sample("tango_resident_bytes", nil, promInt(st.ResidentBytes))

	perBenchCounter(w, names, st, "tango_requests_total",
		"Requests accepted into a benchmark's queue.",
		func(b BenchmarkServeStats) uint64 { return b.Submitted })
	perBenchCounter(w, names, st, "tango_requests_completed_total",
		"Requests that received a result.",
		func(b BenchmarkServeStats) uint64 { return b.Completed })
	perBenchCounter(w, names, st, "tango_requests_canceled_total",
		"Requests whose context expired while queued.",
		func(b BenchmarkServeStats) uint64 { return b.Canceled })

	w.family("tango_requests_rejected_total", "counter", "Requests rejected without queuing, by reason.")
	for _, n := range names {
		b := st.Benchmarks[n]
		w.sample("tango_requests_rejected_total", []string{"benchmark", n, "reason", "queue_full"}, promUint(b.RejectedQueueFull))
		w.sample("tango_requests_rejected_total", []string{"benchmark", n, "reason", "closed"}, promUint(b.RejectedClosed))
	}
	w.family("tango_requests_shed_total", "counter", "Requests shed by admission control, by reason.")
	for _, n := range names {
		b := st.Benchmarks[n]
		w.sample("tango_requests_shed_total", []string{"benchmark", n, "reason", "load"}, promUint(b.ShedLoad))
		w.sample("tango_requests_shed_total", []string{"benchmark", n, "reason", "breaker"}, promUint(b.ShedBreaker))
	}

	perBenchCounter(w, names, st, "tango_batches_total",
		"Batches executed by the compute engine.",
		func(b BenchmarkServeStats) uint64 { return b.Batches })
	perBenchCounter(w, names, st, "tango_batch_errors_total",
		"Batches whose full-batch run failed (before bisection fallback).",
		func(b BenchmarkServeStats) uint64 { return b.BatchErrors })
	perBenchCounter(w, names, st, "tango_batch_bisections_total",
		"Segment splits performed isolating failed batches.",
		func(b BenchmarkServeStats) uint64 { return b.Bisections })
	perBenchCounter(w, names, st, "tango_requests_isolated_total",
		"Requests that still failed alone after bisection.",
		func(b BenchmarkServeStats) uint64 { return b.Isolated })

	perBenchGauge(w, names, st, "tango_in_flight_requests",
		"Admitted requests not yet resolved.",
		func(b BenchmarkServeStats) string { return promInt(b.InFlight) })
	perBenchGauge(w, names, st, "tango_queue_depth",
		"Requests currently waiting in the bounded queue.",
		func(b BenchmarkServeStats) string { return promInt(int64(b.QueueLen)) })
	perBenchGauge(w, names, st, "tango_queue_capacity",
		"Bounded queue capacity.",
		func(b BenchmarkServeStats) string { return promInt(int64(b.QueueCap)) })
	perBenchGauge(w, names, st, "tango_breaker_state",
		"Circuit breaker state: 0 closed, 1 half-open, 2 open.",
		func(b BenchmarkServeStats) string { return promInt(breakerStateValue(b.BreakerState)) })
	perBenchGauge(w, names, st, "tango_batch_window_seconds",
		"Batch window in effect (fixed max-delay, or the adaptive controller's live window).",
		func(b BenchmarkServeStats) string { return promFloat(b.BatchWindowMicros / 1e6) })

	// Batch-size histogram: BatchSizeHist[i] counts batches of size i+1;
	// exposition buckets are cumulative by size.
	w.family("tango_batch_size", "histogram", "Executed batch sizes.")
	for _, n := range names {
		b := st.Benchmarks[n]
		var cum, sum uint64
		for i, c := range b.BatchSizeHist {
			cum += c
			sum += uint64(i+1) * c
			w.sample("tango_batch_size_bucket", []string{"benchmark", n, "le", promUint(uint64(i + 1))}, promUint(cum))
		}
		w.sample("tango_batch_size_bucket", []string{"benchmark", n, "le", "+Inf"}, promUint(b.Batches))
		w.sample("tango_batch_size_sum", []string{"benchmark", n}, promUint(sum))
		w.sample("tango_batch_size_count", []string{"benchmark", n}, promUint(b.Batches))
	}

	// Request-latency histogram: cumulative-since-load bucket counts with
	// the shared serve.LatencyBuckets bounds; p99 within any scrape window
	// is recoverable from bucket deltas.
	w.family("tango_request_latency_seconds", "histogram", "End-to-end request latency (queue wait + batch compute).")
	for _, n := range names {
		b := st.Benchmarks[n]
		var cum uint64
		for i, ub := range serve.LatencyBuckets {
			if i < len(b.LatencyHist) {
				cum += b.LatencyHist[i]
			}
			w.sample("tango_request_latency_seconds_bucket", []string{"benchmark", n, "le", promSeconds(ub)}, promUint(cum))
		}
		if len(b.LatencyHist) > len(serve.LatencyBuckets) {
			cum += b.LatencyHist[len(serve.LatencyBuckets)]
		}
		w.sample("tango_request_latency_seconds_bucket", []string{"benchmark", n, "le", "+Inf"}, promUint(cum))
		w.sample("tango_request_latency_seconds_sum", []string{"benchmark", n}, promFloat(b.LatencySumMicros/1e6))
		w.sample("tango_request_latency_seconds_count", []string{"benchmark", n}, promUint(cum))
	}

	perBenchGauge(w, names, st, "tango_model_resident",
		"Whether the model's engine is loaded (1) or cold (0).",
		func(b BenchmarkServeStats) string {
			if b.Resident {
				return "1"
			}
			return "0"
		})
	perBenchGauge(w, names, st, "tango_model_resident_bytes",
		"Resident engine bytes (weights + packed panels + scratch high-water).",
		func(b BenchmarkServeStats) string { return promInt(b.ResidentBytes) })
	perBenchGauge(w, names, st, "tango_model_weight_bytes",
		"Synthesized parameter bytes of the loaded engine.",
		func(b BenchmarkServeStats) string { return promInt(b.WeightBytes) })
	perBenchGauge(w, names, st, "tango_model_packed_bytes",
		"Fast-tier packed weight-panel bytes built so far.",
		func(b BenchmarkServeStats) string { return promInt(b.PackedBytes) })
	perBenchGauge(w, names, st, "tango_model_scratch_bytes",
		"High-water bytes of one pooled compute scratch (arena + staging).",
		func(b BenchmarkServeStats) string { return promInt(b.ScratchBytes) })
	perBenchCounter(w, names, st, "tango_model_loads_total",
		"Engine load cycles (initial load plus reloads after eviction).",
		func(b BenchmarkServeStats) uint64 { return b.Loads })
	perBenchCounter(w, names, st, "tango_model_evictions_total",
		"Engine evictions under the model byte budget.",
		func(b BenchmarkServeStats) uint64 { return b.Evictions })
}

// breakerStateValue maps a breaker state name to its gauge value.
func breakerStateValue(state string) int64 {
	switch state {
	case "half-open":
		return 1
	case "open":
		return 2
	default:
		return 0
	}
}

// appendRuntimeMetrics renders the live process series: excluded from the
// golden test because they change every scrape.
func appendRuntimeMetrics(w *promWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.family("go_goroutines", "gauge", "Live goroutines.")
	w.sample("go_goroutines", nil, promInt(int64(runtime.NumGoroutine())))
	w.family("go_memstats_heap_alloc_bytes", "gauge", "Heap bytes currently allocated.")
	w.sample("go_memstats_heap_alloc_bytes", nil, promUint(ms.HeapAlloc))
	w.family("go_memstats_alloc_bytes_total", "counter", "Cumulative bytes allocated on the heap.")
	w.sample("go_memstats_alloc_bytes_total", nil, promUint(ms.TotalAlloc))
	w.family("go_memstats_mallocs_total", "counter", "Cumulative heap allocations.")
	w.sample("go_memstats_mallocs_total", nil, promUint(ms.Mallocs))
	w.family("go_memstats_gc_cycles_total", "counter", "Completed GC cycles.")
	w.sample("go_memstats_gc_cycles_total", nil, promUint(uint64(ms.NumGC)))
}

// metricsText is the full GET /metrics body: the deterministic snapshot
// series followed by live process series.
func (s *Server) metricsText() string {
	var w promWriter
	appendServerMetrics(&w, s.Stats())
	appendRuntimeMetrics(&w)
	return w.b.String()
}
