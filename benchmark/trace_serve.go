package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"

	"tango"
	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/serve"
	"tango/internal/tensor"
)

// refBatchKernel is refKernel's batched counterpart: the GemmNN call a
// reference-tier batched convolution makes (one per group, all images folded
// into the column dimension).
func (rl *replayLayer) refBatchKernel(in *tensor.Tensor, buf *kernelBufs) (string, func()) {
	if rl.l.Type != networks.LayerConv {
		return "", nil
	}
	p := rl.l.Conv
	groups := p.Groups
	if groups < 1 {
		groups = 1
	}
	outH, outW := p.OutputDims(in.Dim(2), in.Dim(3))
	m, n, k := p.OutChannels/groups, in.Dim(0)*outH*outW, p.InChannels/groups*p.KernelH*p.KernelW
	colT, dst := buf.get(0, k*n), buf.get(1, m*n)
	w, bias := rl.w.Data(), rl.b.Data()
	return "GemmNN", func() {
		for g := 0; g < groups; g++ {
			tensor.GemmNN(dst, w[g*m*k:(g+1)*m*k], colT, bias[g*m:(g+1)*m], m, n, k, n)
		}
	}
}

// traceServe records the serving chain http -> tango.server -> serve ->
// tango -> core -> networks -> nn op -> tensor kernel on CifarNet, and the
// serving layers' stand-alone probes.
func traceServe(m metrics, rec *recorder, seed uint64) (chainResult, *cnnRig, [][]float32, error) {
	res := chainResult{from: len(rec.spans)}
	rig, err := newCNNRig("CifarNet")
	if err != nil {
		return res, nil, nil, err
	}
	fix, err := newHTTPFixture(2)
	if err != nil {
		return res, nil, nil, err
	}
	defer fix.close()

	r := splitmix{state: seed}
	sel := r.perm(cifarPool)
	images := make([][]float32, len(sel))
	bodies := make([][]byte, len(sel))
	for k, id := range sel {
		images[k] = poolImage(tagCifar, id, cifarShape)
		bodies[k] = classifyBody(images[k])
	}

	// the benchmark's own batcher over the same run function the server
	// gives its batcher, so the serve layer can be called directly
	batcher := serve.NewBatcher(serve.Config{}, func(imgs [][]float32) ([]tango.BatchClassification, error) {
		return rig.tb.ClassifyBatch(imgs)
	})
	defer batcher.Close()

	ctx := context.Background()
	var firstErr error
	note := func(e error) {
		if e != nil && firstErr == nil {
			firstErr = e
		}
	}
	const ops, turn, warm = 160, 40, 8 // long turns: a keep-alive connection left idle goes cold
	first := rec.op + 1
	tops, srvs, dos := make([]int, ops), make([]int, ops), make([]int, ops)
	var reqBytes, respBytes float64
	var fns []func(i int)
	level := func(fn func(i int)) { fns = append(fns, fn) }
	level(func(i int) {
		k := i % len(images)
		tops[i] = rec.call("POST /v1/classify", "http", -1, func() {
			status, data, e := fix.post(0, "/v1/classify", bodies[k])
			if e == nil && status != http.StatusOK {
				e = fmt.Errorf("status %d", status)
			}
			note(e)
			reqBytes, respBytes = float64(len(bodies[k])), float64(len(data))
		})
	})
	level(func(i int) {
		srvs[i] = rec.call("Server.Classify", "tango.server", tops[i], func() {
			_, e := fix.srv.Classify(ctx, "CifarNet", images[i%len(images)])
			note(e)
		})
	})
	level(func(i int) {
		dos[i] = rec.call("Batcher.Do", "serve", srvs[i], func() { _, e := batcher.Do(ctx, images[i%len(images)]); note(e) })
	})
	// below the batcher it is the CNN chain on the batched path, one image
	if _, err := rig.traceCNN(rec, cnnChain{tag: "serve", mode: nn.NumericsReference, batch: 1, batchAPI: true,
		ops: ops, turn: turn, warm: warm, parents: dos, firstOp: first, above: fns}, images); err != nil {
		return res, nil, nil, err
	}
	res.to = len(rec.spans)
	httpS := secondsBy(rec, res, byLayer("http"))
	srvS := secondsBy(rec, res, byLayer("tango.server"))
	tangoS := secondsBy(rec, res, byLayer("tango"))
	coreS := secondsBy(rec, res, byLayer("core"))
	m.set("http.classify_self_us", 1e6*median(sub(httpS, srvS)))
	m.set("server.classify_self_us", 1e6*median(sub(srvS, tangoS)))
	m.set("tango.classifybatch_self_us", 1e6*median(sub(tangoS, coreS)))
	m.set("http.req_bytes", reqBytes)
	m.set("http.resp_bytes", respBytes)

	// http.allocs_per_req: heap objects per round trip, client included
	const allocReqs = 200
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < allocReqs; i++ {
		_, _, e := fix.post(0, "/v1/classify", bodies[i%len(bodies)])
		note(e)
	}
	runtime.ReadMemStats(&ms)
	m.set("http.allocs_per_req", float64(ms.Mallocs-before)/allocReqs)

	const scrapes = 50
	m.set("http.metrics_scrape_us", 1e6*timed(3, func() {
		for i := 0; i < scrapes; i++ {
			resp, e := fix.clients[0].Get(fix.url + "/metrics")
			if e == nil {
				_, e = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			note(e)
		}
	})/scrapes)

	// serve.mean_batch: what the server's batcher forms once callers
	// overlap, two closed-loop connections (the workload's one caller only
	// ever makes batches of one)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				_, _, e := fix.post(c, "/v1/classify", bodies[(c*300+i)%len(bodies)])
				if e != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	m.set("serve.mean_batch", fix.srv.Stats().MeanBatchSize)

	// serve.batcher_do*: the batcher alone, over a run function that does
	// nothing, from one caller and from two
	noop := serve.NewBatcher(serve.Config{}, func(ins []int) ([]int, error) { return ins, nil })
	defer noop.Close()
	const calls = 20000
	m.set("serve.batcher_do_us", 1e6*timed(3, func() {
		for i := 0; i < calls; i++ {
			_, e := noop.Do(ctx, i)
			note(e)
		}
	})/calls)
	m.set("serve.batcher_do_c2_us", 1e6*timed(3, func() {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls/2; i++ {
					if _, e := noop.Do(ctx, i); e != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
	})/(calls/2))
	return res, rig, images, firstErr
}
