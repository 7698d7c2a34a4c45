package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"

	"tango"
	"tango/internal/bench"
	"tango/internal/coord"
	"tango/internal/device"
	"tango/internal/distcache"
	"tango/internal/fpga"
	"tango/internal/gpusim"
	"tango/internal/par"
	"tango/internal/power"
	"tango/internal/target"
)

// gpuDevices maps the sweep's GPU targets to the devices they model, for
// calling gpusim and power directly the way target.gpuTarget.Run does.
var gpuDevices = map[string]device.GPU{"gp102": device.PascalGP102(), "tx1": device.TX1()}

// traceSweep records the characterization chain tango.sweep -> target ->
// kernel / gpusim / power / fpga / distcache, plus the simulator-side
// stand-alone probes.
func traceSweep(m metrics, rec *recorder, env *runEnv) (chainResult, error) {
	res := chainResult{from: len(rec.spans)}
	reg := target.Builtin()
	variant := target.DefaultVariant(gpusim.FastSampling())
	fpgaModel, err := fpga.New(fpga.DefaultConfig())
	if err != nil {
		return res, err
	}
	var firstErr error
	note := func(e error) {
		if e != nil && firstErr == nil {
			firstErr = e
		}
	}
	tmp := func() string {
		dir, e := os.MkdirTemp(env.tmpDir, "trace-sweep-")
		note(e)
		return dir
	}
	var (
		ds        *tango.Dataset
		warmMS    []float64
		computes  int64
		alexStats *gpusim.RunStats
		alexRun   *target.RunStats
		alexTrace *target.Trace
	)
	const ops = 3
	first := rec.op + 1
	type cellKey struct{ network, target string }
	tops := make([]int, ops)
	cells := make([]map[cellKey]int, ops)
	runs := map[cellKey]*target.RunStats{}
	var fns []func(i int)
	level := func(fn func(i int)) { fns = append(fns, fn) }
	level(func(i int) {
		dir := tmp()
		defer os.RemoveAll(dir)
		cfg := tango.SweepConfig{Networks: sweepNetworks, Targets: sweepTargets, FastSampling: true, CacheDir: dir}
		tops[i] = rec.call("Sweep", "tango.sweep", -1, func() {
			var e error
			ds, e = tango.Sweep(cfg)
			note(e)
		})
		// sweep.warm_ms: the same sweep again, fresh store, same directory
		var cs tango.CacheStats
		cfg.CacheStats = &cs
		warmMS = append(warmMS, 1e3*timed(1, func() { _, e := tango.Sweep(cfg); note(e) }))
		if cs.Computes != 0 {
			note(fmt.Errorf("warm sweep computed %d cells", cs.Computes))
		}
	})
	// the level below: one Store.Run per cell, on a fresh store over a fresh
	// directory, as Sweep does with CacheDir set
	level(func(i int) {
		dir := tmp()
		defer os.RemoveAll(dir)
		store := target.NewStore()
		disk, e := distcache.Open(dir)
		note(e)
		store.SetDisk(disk)
		cells[i] = map[cellKey]int{}
		for _, network := range sweepNetworks {
			for _, tname := range sweepTargets {
				t, e := reg.Lookup(tname)
				note(e)
				key := cellKey{network, tname}
				cells[i][key] = rec.call("Store.Run:"+network+"/"+tname, "target", tops[i], func() {
					runs[key], e = store.Run(t, network, variant)
					note(e)
				})
			}
		}
		computes = store.Stats().Computes
	})
	// and below that, each backend a cell used, called directly
	level(func(i int) {
		dir := tmp()
		defer os.RemoveAll(dir)
		disk, e := distcache.Open(dir)
		note(e)
		for _, network := range sweepNetworks {
			var tr *target.Trace
			for ti, tname := range sweepTargets {
				key := cellKey{network, tname}
				cell := cells[i][key]
				if ti == 0 { // the store extracts each network's trace once
					rec.call("Store.Trace:"+network, "kernel", cell, func() {
						tr, e = target.NewStore().Trace(network)
						note(e)
					})
				}
				if dev, ok := gpuDevices[tname]; ok {
					var gs *gpusim.RunStats
					rec.call("RunKernels:"+network+"/"+tname, "gpusim", cell, func() {
						sim, e := gpusim.New(gpusim.ConfigFor(dev).WithSampling(gpusim.FastSampling()))
						note(e)
						gs, e = sim.RunKernels(network, tr.Kernels)
						note(e)
					})
					rec.call("NetworkPower:"+network+"/"+tname, "power", cell, func() {
						power.NewModel(dev).NetworkPower(gs)
					})
					if network == "AlexNet" && tname == "gp102" {
						alexStats, alexRun, alexTrace = gs, runs[key], tr
					}
				} else {
					rec.call("EstimateNetwork:"+network, "fpga", cell, func() {
						_, e := fpgaModel.EstimateNetwork(tr.Net)
						note(e)
					})
				}
				t, e := reg.Lookup(tname)
				note(e)
				rec.call("Cache.Store:"+network+"/"+tname, "distcache", cell, func() {
					note(disk.Store(target.RunKey(t, network, variant), runs[key]))
				})
			}
		}
	})
	rec.levels(walk{firstOp: first, ops: ops, turn: ops, warm: 1}, fns...)
	res.to = len(rec.spans)
	if firstErr != nil {
		return res, firstErr
	}
	sweepS := secondsBy(rec, res, byLayer("tango.sweep"))
	cellS := secondsBy(rec, res, byLayer("target"))
	m.set("sweep.self_ms", 1e3*median(sub(sweepS, cellS)))
	m.set("sweep.warm_ms", median(warmMS))
	m.set("target.computes", float64(computes))
	named := func(layer, name string) float64 {
		return median(secondsBy(rec, res, func(s span) bool { return s.Layer == layer && s.Name == name }))
	}
	m.set("target.run_cold_ms", 1e3*named("target", "Store.Run:CifarNet/gp102"))
	m.set("kernel.trace_cifarnet_ms", 1e3*named("kernel", "Store.Trace:CifarNet"))
	m.set("kernel.trace_alexnet_ms", 1e3*named("kernel", "Store.Trace:AlexNet"))
	m.set("gpusim.run_cifarnet_ms", 1e3*named("gpusim", "RunKernels:CifarNet/gp102"))
	alexHost := named("gpusim", "RunKernels:AlexNet/gp102")
	m.set("gpusim.run_alexnet_ms", 1e3*alexHost)
	var simCycles, simInsts int64
	for _, ks := range alexStats.Kernels {
		simCycles += ks.SimCycles
		simInsts += ks.SimThreadInstructions
	}
	m.set("gpusim.sim_cycles", float64(simCycles))
	m.set("gpusim.sim_insts", float64(simInsts))
	m.set("gpusim.host_ns_per_sim_cycle", 1e9*alexHost/float64(simCycles))

	// stand-alone probes on the AlexNet/gp102 cell
	const small = 2000
	pm := power.NewModel(gpuDevices["gp102"])
	m.set("power.network_power_us", 1e6*timed(3, func() {
		for i := 0; i < small; i++ {
			pm.NetworkPower(alexStats)
		}
	})/small)
	m.set("fpga.estimate_us", 1e6*timed(3, func() {
		for i := 0; i < small; i++ {
			_, e := fpgaModel.EstimateNetwork(alexTrace.Net)
			note(e)
		}
	})/small)

	gp102, _ := reg.Lookup("gp102")
	key := target.RunKey(gp102, "AlexNet", variant)
	var encoded []byte
	const recs = 50
	m.set("distcache.encode_us", 1e6*timed(3, func() {
		for i := 0; i < recs; i++ {
			var e error
			encoded, e = distcache.Encode(key, alexRun)
			note(e)
		}
	})/recs)
	m.set("distcache.record_bytes", float64(len(encoded)))
	m.set("distcache.decode_us", 1e6*timed(3, func() {
		for i := 0; i < recs; i++ {
			_, e := distcache.Decode(encoded, key, alexTrace)
			note(e)
		}
	})/recs)
	dir := tmp()
	defer os.RemoveAll(dir)
	disk, err := distcache.Open(dir)
	if err != nil {
		return res, err
	}
	m.set("distcache.store_us", 1e6*timed(3, func() {
		for i := 0; i < recs; i++ {
			note(disk.Store(key, alexRun))
		}
	})/recs)
	m.set("distcache.load_us", 1e6*timed(3, func() {
		for i := 0; i < recs; i++ {
			if _, ok := disk.Load(key, alexTrace); !ok {
				note(fmt.Errorf("distcache: stored record did not load"))
			}
		}
	})/recs)

	// target.run_hit_ns: a memory hit in a warm store
	store := target.NewStore()
	_, err = store.Run(gp102, "CifarNet", variant)
	note(err)
	const hits = 200000
	m.set("target.run_hit_ns", 1e9*timed(3, func() {
		for i := 0; i < hits; i++ {
			_, e := store.Run(gp102, "CifarNet", variant)
			note(e)
		}
	})/hits)

	// coord.cell_roundtrip_ms: coordinator pool -> one in-process worker
	// over loopback, cell already warm in the worker's store
	worker := coord.NewWorker(coord.WorkerConfig{Store: store, Parallelism: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hs := &http.Server{Handler: worker}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	pool, err := coord.NewPool([]string{ln.Addr().String()}, coord.PoolConfig{})
	note(err)
	cifarTrace, err := store.Trace("CifarNet")
	note(err)
	const trips = 20
	if firstErr == nil {
		m.set("coord.cell_roundtrip_ms", 1e3*timed(3, func() {
			for i := 0; i < trips; i++ {
				_, e := pool.Fetch(context.Background(), 0, gp102, "CifarNet", variant, cifarTrace)
				note(e)
			}
		})/trips)
	}
	http.DefaultClient.CloseIdleConnections() // the pool's client
	_ = hs.Close()
	<-served
	worker.Close()

	// bench.runall_warm_ms: every table and figure rendered from a warm
	// private store (small networks, fast sampling; the first pass fills it)
	session := bench.NewSession(bench.Options{
		Sampling: gpusim.FastSampling(), Networks: []string{"CifarNet", "GRU", "LSTM"}, Store: target.NewStore(),
	})
	_, err = session.RunAll()
	note(err)
	m.set("bench.runall_warm_ms", 1e3*timed(3, func() { _, e := session.RunAll(); note(e) }))

	const renders = 2000
	m.set("report.csv_us", 1e6*timed(3, func() {
		for i := 0; i < renders; i++ {
			_ = ds.CSV()
		}
	})/renders)
	m.set("par.foreach_us", 1e6*timed(3, func() {
		for i := 0; i < renders; i++ {
			_ = par.ForEach(2, 64, func(int) error { return nil })
		}
	})/renders)
	return res, firstErr
}
