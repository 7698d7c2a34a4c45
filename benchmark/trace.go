package main

import (
	"fmt"
	"path/filepath"
)

// layerMetric is one per-layer metric: its unit and whether larger is better.
type layerMetric struct {
	name, unit string
	higher     bool
}

// perLayer lists every per-layer metric a traced run reports, in reporting
// order.  Exact counts and computed sizes are marked lower-is-better; they
// are expected not to move at all.  BENCHMARK.json carries the same table
// (-print-benchmark-json writes it) and a test keeps the two in step.
var perLayer = []layerMetric{
	{"tensor.gemm_nt_gmacs", "GMAC/s", true},
	{"tensor.matvec_gmacs", "GMAC/s", true},
	{"tensor.matvec_lstm_us", "us", false},
	{"tensor.gemm_nn_gmacs", "GMAC/s", true},
	{"tensor.gemm_fast_gmacs", "GMAC/s", true},
	{"tensor.gemm_fused_gmacs", "GMAC/s", true},
	{"tensor.gemm_int8_gmacs", "GMAC/s", true},
	{"tensor.pack_a_ms", "ms", false},
	{"tensor.macs_per_call", "count", false},
	{"tensor.bytes_per_call", "B", false},
	{"tensor.simd_tier", "tier", true},
	{"nn.ref_b1_conv_ms", "ms", false},
	{"nn.ref_b1_fc_ms", "ms", false},
	{"nn.ref_b1_pool_ms", "ms", false},
	{"nn.ref_b1_lrn_ms", "ms", false},
	{"nn.ref_b1_other_ms", "ms", false},
	{"nn.fast_b1_conv_ms", "ms", false},
	{"nn.fast_b1_fc_ms", "ms", false},
	{"nn.fast_b1_pool_ms", "ms", false},
	{"nn.fast_b1_lrn_ms", "ms", false},
	{"nn.fast_b1_other_ms", "ms", false},
	{"nn.int8_b8_conv_ms", "ms", false},
	{"nn.int8_b8_fc_ms", "ms", false},
	{"nn.int8_b8_pool_ms", "ms", false},
	{"nn.int8_b8_lrn_ms", "ms", false},
	{"nn.int8_b8_other_ms", "ms", false},
	{"nn.lstm_step_us", "us", false},
	{"nn.alexnet_macs", "count", false},
	{"nn.replay_coverage_ref", "ratio", true},
	{"nn.replay_coverage_fast", "ratio", true},
	{"nn.replay_coverage_int8", "ratio", true},
	{"networks.plan_build_ms", "ms", false},
	{"networks.pack_fast_ms", "ms", false},
	{"networks.pack_int8_ms", "ms", false},
	{"networks.packed_bytes", "B", false},
	{"networks.walker_self_ref_ms", "ms", false},
	{"networks.walker_self_int8_b8_ms", "ms", false},
	{"weights.synth_alexnet_ms", "ms", false},
	{"core.load_alexnet_ms", "ms", false},
	{"core.self_b1_us", "us", false},
	{"core.lstm_seq_us", "us", false},
	{"core.scratch_cycle_ns", "ns", false},
	{"core.alexnet_ref_b8_ms", "ms", false},
	{"core.alexnet_fast_b8_ms", "ms", false},
	{"core.alexnet_int8_b1_ms", "ms", false},
	{"tango.classify_self_us", "us", false},
	{"tango.classifybatch_self_us", "us", false},
	{"tango.forecast_self_us", "us", false},
	{"serve.batcher_do_us", "us", false},
	{"serve.batcher_do_c2_us", "us", false},
	{"serve.mean_batch", "count", true},
	{"server.classify_self_us", "us", false},
	{"http.classify_self_us", "us", false},
	{"http.req_bytes", "B", false},
	{"http.resp_bytes", "B", false},
	{"http.allocs_per_req", "count", false},
	{"http.metrics_scrape_us", "us", false},
	{"kernel.trace_cifarnet_ms", "ms", false},
	{"kernel.trace_alexnet_ms", "ms", false},
	{"gpusim.run_cifarnet_ms", "ms", false},
	{"gpusim.run_alexnet_ms", "ms", false},
	{"gpusim.sim_cycles", "count", false},
	{"gpusim.sim_insts", "count", false},
	{"gpusim.host_ns_per_sim_cycle", "ns", false},
	{"power.network_power_us", "us", false},
	{"fpga.estimate_us", "us", false},
	{"target.run_cold_ms", "ms", false},
	{"target.run_hit_ns", "ns", false},
	{"target.computes", "count", false},
	{"distcache.encode_us", "us", false},
	{"distcache.decode_us", "us", false},
	{"distcache.store_us", "us", false},
	{"distcache.load_us", "us", false},
	{"distcache.record_bytes", "B", false},
	{"coord.cell_roundtrip_ms", "ms", false},
	{"bench.runall_warm_ms", "ms", false},
	{"report.csv_us", "us", false},
	{"par.foreach_us", "us", false},
	{"sweep.self_ms", "ms", false},
	{"sweep.warm_ms", "ms", false},
	{"trace.overhead_pct", "%", false},
}

// chainOf names the traced chain that replays each workload's op, and the
// layer of its outermost span.
var chainOf = map[string][2]string{
	"alexnet-ref-b1":   {"ref_b1", "tango"},
	"alexnet-int8-b8":  {"int8_b8", "tango"},
	"serve-cifar-http": {"serve", "http"},
	"sweep-cold":       {"sweep", "tango.sweep"},
}

// layerOrder is the outside-in order self times are printed in.
var layerOrder = []string{"http", "tango.server", "serve", "tango.sweep", "tango", "core", "networks", "target",
	"nn", "tensor", "kernel", "gpusim", "power", "fpga", "distcache"}

// runTraced is the traced run: the per-layer suite (every chain and probe,
// whatever the workload, because every traced run reports every per-layer
// metric) plus an untraced window of the named workload, against which the
// traced chain's outermost call gives trace.overhead_pct.
func runTraced(w workload, seed uint64, seconds float64, exp *expectedFile, env *runEnv, traceOut string) (*runResult, error) {
	// the workload itself, untraced, for a fifth of the window
	construct, err := w.prepare(seed, exp, env)
	if err != nil {
		return nil, err
	}
	var count opCounter
	ref := w
	ref.setupRepeats = 1
	eng, _, err := setUp(ref, construct, &count)
	if err != nil {
		return nil, err
	}
	first := warmUp(ref, eng, &count)
	win := runSlices(ref, eng, seconds/5, first, &count)
	eng.close()
	eng = nil
	untraced := median(win.latMS) / 1e3
	releaseMemory()

	// Light sections first, AlexNet last: its gigabyte of weights and packs,
	// once freed and returned to the OS, leaves a heap whose next users pay
	// page faults the untraced workloads never see.
	m := metrics{}
	rec := newRecorder()
	chains := map[string]chainResult{}
	if chains["sweep"], err = traceSweep(m, rec, env); err != nil {
		return nil, err
	}
	if chains["lstm"], err = traceLSTM(m, rec, seed); err != nil {
		return nil, err
	}
	serveChain, cifar, cifarImages, err := traceServe(m, rec, seed)
	if err != nil {
		return nil, err
	}
	chains["serve"] = serveChain
	if chains["cifar_b1"], err = traceCifarSelf(m, rec, cifar, cifarImages); err != nil {
		return nil, err
	}
	traceTensor(m)
	alex, err := traceAlexNet(m, rec, seed)
	if err != nil {
		return nil, err
	}
	for tag, cr := range alex {
		chains[tag] = cr
	}

	// tracing overhead and attribution closure for the named workload
	chain := chains[chainOf[w.name][0]]
	traced := median(secondsBy(rec, chain, byLayer(chainOf[w.name][1])))
	m.set("trace.overhead_pct", 100*(traced-untraced)/untraced)
	printClosure(rec, chain, w.name, untraced)

	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			return nil, fmt.Errorf("traced run did not produce %s", d.name)
		}
	}
	if traceOut == "" {
		traceOut = filepath.Join(filepath.Dir(env.tmpDir), "trace-"+w.name+".json")
	}
	if err := writeJSON(traceOut, map[string]any{"workload": w.name, "seed": seed, "spans": rec.spans}); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans written to %s\n", len(rec.spans), traceOut)
	return &runResult{
		Workload:  w.name,
		Seed:      seed,
		Seconds:   seconds,
		Attempted: count.attempted + rec.op,
		Failed:    count.failed,
		Samples:   len(win.latMS),
		Slices:    len(win.slices),
		FirstErr:  count.firstErr,
		Metrics:   m,
	}, nil
}

// printClosure prints the chain's median self time per layer, their sum,
// and how that sum compares with the workload's untraced median latency.
func printClosure(rec *recorder, cr chainResult, workload string, untraced float64) {
	sp := rec.spans[cr.from:cr.to]
	self := selfSeconds(rec.spans)[cr.from:cr.to]
	fmt.Printf("self time per layer, %s (median over %d traced ops):\n", workload, len(secondsBy(rec, cr, func(s span) bool { return s.Parent < 0 })))
	total := 0.0
	seen := map[string]bool{}
	for _, s := range sp {
		seen[s.Layer] = true
	}
	for _, layer := range layerOrder {
		if !seen[layer] {
			continue
		}
		v := median(perOp(sp, byLayer(layer), func(i int) float64 { return self[i] }))
		total += v
		fmt.Printf("  %-14s %12.4f ms\n", layer, 1e3*v)
	}
	fmt.Printf("  %-14s %12.4f ms = %.3f of the untraced p50 (%.4f ms)\n", "sum", 1e3*total, total/untraced, 1e3*untraced)
}
