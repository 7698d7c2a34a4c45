package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"tango"
)

// workloads is the suite, in reporting order.  The "why" lines are what
// BENCHMARK.json records; README.md has the long form.
var workloads = []workload{
	{
		name:       "alexnet-ref-b1",
		why:        "Default byte-identical path on the paper's headline CNN: NT Gemm/MatVecBias, im2col staging and Plan.Run do all the work; packed kernels, batcher and simulator do none.",
		itemsPerOp: 1, sliceOps: 3, warmOps: 3, setupRepeats: 5,
		prepare: prepareClassify(nil, 1, 4, 0),
	},
	{
		name:       "alexnet-int8-b8",
		why:        "The same nn/tensor layers used packed and batched: fused im2col panel packing, GemmInt8Panel, per-image quantization; set-up and RSS carry the packing cost; bypasses the NT reference kernels.",
		itemsPerOp: 8, sliceOps: 4, warmOps: 3, setupRepeats: 3,
		prepare: prepareClassify(tango.WithInt8(), 8, 12, tolInt8),
	},
	{
		name:       "serve-cifar-http",
		why:        "Closed loop, one keep-alive connection POSTing a 3x32x32 image to an in-process tango.Server: JSON, Server, Batcher and CifarNet's reference batch path (GemmNN); AlexNet-scale kernels do nothing.",
		itemsPerOp: 1, sliceOps: 500, warmOps: 200, setupRepeats: 25,
		prepare: prepareServe,
	},
	{
		name:       "sweep-cold",
		why:        "The paper's own use: a cold 12-cell characterization sweep (trace extraction, gpusim, power, fpga, store, disk cache write, report). The native engine does nothing here.",
		itemsPerOp: sweepCells, sliceOps: 2, warmOps: 2, setupRepeats: 5,
		prepare: prepareSweep,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- AlexNet classification (three tiers) ---

type classifyEngine struct {
	b      *tango.Benchmark
	opts   []tango.SimOption
	batch  int
	images [][]float32
	exp    []*expectedOutput
	tol    float64 // 0 = bit-identical
}

func (e *classifyEngine) check(k int, class int, probs []float32) error {
	if e.tol == 0 {
		return e.exp[k].checkExact(class, probs)
	}
	return e.exp[k].checkTolerance(class, probs, e.tol)
}

func (e *classifyEngine) op(i int) error {
	n := len(e.images)
	if e.batch == 1 {
		k := i % n
		c, err := e.b.Classify(e.images[k], e.opts...)
		if err != nil {
			return err
		}
		return e.check(k, c.Class, c.Probabilities)
	}
	// A window of batch images that rotates through the selection, so
	// successive ops see different batch compositions.
	imgs := make([][]float32, e.batch)
	for j := range imgs {
		imgs[j] = e.images[(i+j)%n]
	}
	out, err := e.b.ClassifyBatch(imgs, e.opts...)
	if err != nil {
		return err
	}
	for j, c := range out {
		if err := e.check((i+j)%n, c.Class, c.Probabilities); err != nil {
			return fmt.Errorf("image %d of batch: %w", j, err)
		}
	}
	return nil
}

func (e *classifyEngine) close() {}

// prepareClassify builds an AlexNet workload: opt selects the tier (nil =
// reference), distinct is how many pool images the seed selects.
func prepareClassify(opt tango.SimOption, batch, distinct int, tol float64) func(uint64, *expectedFile, *runEnv) (func() (engine, error), error) {
	return func(seed uint64, exp *expectedFile, _ *runEnv) (func() (engine, error), error) {
		r := splitmix{state: seed}
		sel := r.perm(alexPool)[:distinct]
		images := make([][]float32, distinct)
		pinned := make([]*expectedOutput, distinct)
		for k, id := range sel {
			images[k] = poolImage(tagAlex, id, alexShape)
			pinned[k] = &exp.AlexNet[id]
		}
		var opts []tango.SimOption
		if opt != nil {
			opts = []tango.SimOption{opt}
		}
		return func() (engine, error) {
			b, err := tango.LoadBenchmark("AlexNet")
			if err != nil {
				return nil, err
			}
			e := &classifyEngine{b: b, opts: opts, batch: batch, images: images, exp: pinned, tol: tol}
			return e, e.op(0)
		}, nil
	}
}

// --- HTTP serving ---

// classifyReply is the part of the /v1/classify response the check reads.
type classifyReply struct {
	Class         int       `json:"class"`
	Probabilities []float32 `json:"probabilities"`
}

// httpFixture is an in-process tango.Server behind a loopback listener plus
// one keep-alive client per closed-loop caller.  The listener accepts from
// the moment net.Listen returns, so there is nothing to wait or poll for.
type httpFixture struct {
	srv     *tango.Server
	hs      *http.Server
	served  chan struct{}
	clients []*http.Client
	url     string
}

func newHTTPFixture(clients int) (*httpFixture, error) {
	srv, err := tango.NewServer([]string{"CifarNet"}, tango.ServerConfig{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	f := &httpFixture{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(f.served)
		_ = f.hs.Serve(ln) // returns ErrServerClosed on close()
	}()
	for c := 0; c < clients; c++ {
		f.clients = append(f.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return f, nil
}

// post sends one request body on client c's connection and returns the
// status and full reply body.
func (f *httpFixture) post(c int, path string, body []byte) (int, []byte, error) {
	resp, err := f.clients[c].Post(f.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (f *httpFixture) close() {
	for _, c := range f.clients {
		c.CloseIdleConnections()
	}
	_ = f.hs.Close() // no request is in flight by now
	<-f.served
	f.srv.Close()
}

type serveEngine struct {
	*httpFixture
	bodies [][]byte
	exp    []*expectedOutput
}

func (e *serveEngine) op(i int) error {
	k := i % len(e.bodies)
	status, data, err := e.post(0, "/v1/classify", e.bodies[k])
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, data)
	}
	var reply classifyReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return err
	}
	return e.exp[k].checkExact(reply.Class, reply.Probabilities)
}

// classifyBody is a pre-encoded /v1/classify request.
func classifyBody(img []float32) []byte {
	body, err := json.Marshal(map[string]any{"benchmark": "CifarNet", "image": img})
	if err != nil {
		panic(err) // a float32 slice always encodes
	}
	return body
}

func prepareServe(seed uint64, exp *expectedFile, _ *runEnv) (func() (engine, error), error) {
	r := splitmix{state: seed}
	sel := r.perm(cifarPool)
	bodies := make([][]byte, len(sel))
	pinned := make([]*expectedOutput, len(sel))
	for k, id := range sel {
		bodies[k] = classifyBody(poolImage(tagCifar, id, cifarShape))
		pinned[k] = &exp.CifarNet[id]
	}
	return func() (engine, error) {
		f, err := newHTTPFixture(1)
		if err != nil {
			return nil, err
		}
		e := &serveEngine{httpFixture: f, bodies: bodies, exp: pinned}
		if err := e.op(0); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}, nil
}

// --- cold characterization sweep ---

type sweepEngine struct {
	networks, targets []string
	tmpDir            string
	want              string
}

// op performs one cold sweep into a fresh cache directory and verifies it.
func (e *sweepEngine) op(int) error {
	dir, err := os.MkdirTemp(e.tmpDir, "sweep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var cs tango.CacheStats
	ds, err := tango.Sweep(tango.SweepConfig{
		Networks: e.networks, Targets: e.targets, FastSampling: true,
		CacheDir: dir, CacheStats: &cs,
	})
	if err != nil {
		return err
	}
	if got := hashSortedLines(ds.CSV()); got != e.want {
		return fmt.Errorf("sweep CSV digest %s, pinned %s: simulated statistics changed", got, e.want)
	}
	if cs.Computes != sweepCells {
		return fmt.Errorf("sweep computed %d cells, want %d (cold)", cs.Computes, sweepCells)
	}
	return nil
}

func (e *sweepEngine) close() {}

func prepareSweep(seed uint64, exp *expectedFile, env *runEnv) (func() (engine, error), error) {
	// The seed orders the cell matrix; the set of cells is fixed.
	r := splitmix{state: seed}
	e := &sweepEngine{tmpDir: env.tmpDir, want: exp.SweepCSV}
	for _, i := range r.perm(len(sweepNetworks)) {
		e.networks = append(e.networks, sweepNetworks[i])
	}
	for _, i := range r.perm(len(sweepTargets)) {
		e.targets = append(e.targets, sweepTargets[i])
	}
	return func() (engine, error) { return e, e.op(0) }, nil
}
