package main

import (
	"fmt"
	"strings"

	"tango"
	"tango/internal/core"
	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/tensor"
	"tango/internal/weights"
)

// metrics collects a traced run's per-layer values.
type metrics map[string]metric

// set records a value under a name the perLayer table declares.
func (m metrics) set(name string, value float64) {
	for _, d := range perLayer {
		if d.name == name {
			m[name] = metric{value, d.unit}
			return
		}
	}
	panic("benchmark: per-layer metric " + name + " is not declared in perLayer")
}

// replayLayer is one CNN layer with what a replay through nn.Scratch needs.
type replayLayer struct {
	l     *networks.Layer
	class string // conv, fc, pool, lrn or other: the paper's layer classes
	w, b  *tensor.Tensor
	conv  map[nn.Numerics]*nn.ConvPack
	fc    map[nn.Numerics]*nn.FCPack
	inF   int // fc input features
}

// cnnRig is one CNN at every level the trace descends through: the public
// benchmark, a core-level twin with the same (deterministic) weights, its
// plan, and the per-layer weights and packs for replaying each layer's
// nn.Scratch op from outside.
type cnnRig struct {
	name   string
	tb     *tango.Benchmark
	cb     *core.Benchmark
	plan   *networks.Plan
	layers []replayLayer
}

func layerClass(t networks.LayerType) string {
	switch t {
	case networks.LayerConv:
		return "conv"
	case networks.LayerFC:
		return "fc"
	case networks.LayerPool:
		return "pool"
	case networks.LayerLRN:
		return "lrn"
	default:
		return "other"
	}
}

func newCNNRig(name string, packModes ...nn.Numerics) (*cnnRig, error) {
	tb, err := tango.LoadBenchmark(name)
	if err != nil {
		return nil, err
	}
	cb, err := core.Load(name)
	if err != nil {
		return nil, err
	}
	plan, err := cb.Plan()
	if err != nil {
		return nil, err
	}
	rig := &cnnRig{name: name, tb: tb, cb: cb, plan: plan}
	net := cb.Network
	inShape := net.InputShape
	for li := range net.Layers {
		l := &net.Layers[li]
		rl := replayLayer{l: l, class: layerClass(l.Type), conv: map[nn.Numerics]*nn.ConvPack{}, fc: map[nn.Numerics]*nn.FCPack{}}
		switch l.Type {
		case networks.LayerConv:
			if rl.w, err = cb.Weights.Get(l.Name, "weights", l.Conv.WeightCount()); err == nil {
				rl.b, err = cb.Weights.Get(l.Name, "bias", l.Conv.OutChannels)
			}
			for _, m := range packModes {
				rl.conv[m] = nn.PackConv(rl.w, l.Conv, m)
			}
		case networks.LayerFC:
			rl.inF = 1
			for _, d := range inShape {
				rl.inF *= d
			}
			if rl.w, err = cb.Weights.Get(l.Name, "weights", l.FCOut*rl.inF); err == nil {
				rl.b, err = cb.Weights.Get(l.Name, "bias", l.FCOut)
			}
			for _, m := range packModes {
				rl.fc[m] = nn.PackFC(rl.w, l.FCOut, rl.inF, m)
			}
		case networks.LayerPool, networks.LayerLRN, networks.LayerSoftmax, networks.LayerReLU:
		default:
			return nil, fmt.Errorf("%s layer %s: replay does not cover layer type %v", name, l.Name, l.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("%s layer %s: %w", name, l.Name, err)
		}
		rig.layers = append(rig.layers, rl)
		inShape = l.OutShape
	}
	return rig, nil
}

// replay runs every layer's nn.Scratch op in graph order on s, the way
// Plan.Run / RunBatch does, handing each layer's work to each so the caller
// can time it.  The fused ReLU is part of the layer's op.
func (rig *cnnRig) replay(s *nn.Scratch, input *tensor.Tensor, batch bool, each func(li int, rl *replayLayer, in *tensor.Tensor, run func())) error {
	s.BeginRun()
	mode := s.Numerics()
	cur := input
	var firstErr error
	for li := range rig.layers {
		rl := &rig.layers[li]
		l := rl.l
		in := cur
		var out *tensor.Tensor
		each(li, rl, in, func() {
			var err error
			switch {
			case l.Type == networks.LayerConv && batch:
				out, err = s.Conv2DBatchPacked(in, rl.w, rl.b, l.Conv, rl.conv[mode])
			case l.Type == networks.LayerConv:
				out, err = s.Conv2DPacked(in, rl.w, rl.b, l.Conv, rl.conv[mode])
			case l.Type == networks.LayerFC && batch:
				out, err = s.FullyConnectedBatchPacked(in, rl.w, rl.b, l.FCOut, rl.fc[mode])
			case l.Type == networks.LayerFC:
				out, err = s.FullyConnectedPacked(in, rl.w, rl.b, l.FCOut, rl.fc[mode])
			case l.Type == networks.LayerPool && batch:
				out, err = s.Pool2DBatch(in, l.Pool)
			case l.Type == networks.LayerPool:
				out, err = s.Pool2D(in, l.Pool)
			case l.Type == networks.LayerLRN && batch:
				out, err = s.LRNBatch(in, l.LRN)
			case l.Type == networks.LayerLRN:
				out, err = s.LRN(in, l.LRN)
			case l.Type == networks.LayerReLU && batch:
				out, err = s.ReLUBatch(in)
			case l.Type == networks.LayerReLU:
				out, err = s.ReLU(in)
			case batch:
				out, err = s.SoftmaxBatch(in)
			default:
				out, err = s.Softmax(in)
			}
			if err == nil && l.FusedReLU {
				nn.ReLUInPlace(out)
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s replay %s: %w", rig.name, l.Name, err)
			}
		})
		if firstErr != nil {
			return firstErr
		}
		cur = out
	}
	return nil
}

// refKernel returns the reference-tier tensor kernel call a conv or fc
// layer's single-sample op makes, on buffers of the real shapes (the weight
// matrix is the layer's own; the staged activations are stand-ins, which the
// kernels' running time does not depend on).
func (rl *replayLayer) refKernel(in *tensor.Tensor, buf *kernelBufs) (name string, run func()) {
	l := rl.l
	switch l.Type {
	case networks.LayerConv:
		p := l.Conv
		groups := p.Groups
		if groups < 1 {
			groups = 1
		}
		outH, outW := p.OutputDims(in.Dim(1), in.Dim(2))
		m, n, k := p.OutChannels/groups, outH*outW, p.InChannels/groups*p.KernelH*p.KernelW
		col, dst := buf.get(0, n*k), buf.get(1, p.OutChannels*n)
		w, bias := rl.w.Data(), rl.b.Data()
		return "Gemm", func() {
			for g := 0; g < groups; g++ {
				tensor.Gemm(dst[g*m*n:(g+1)*m*n], w[g*m*k:(g+1)*m*k], col, bias[g*m:(g+1)*m], m, n, k)
			}
		}
	case networks.LayerFC:
		dst := buf.get(1, l.FCOut)
		return "MatVecBias", func() {
			tensor.MatVecBias(dst, rl.w.Data(), in.Data()[:rl.inF], rl.b.Data(), l.FCOut, rl.inF)
		}
	}
	return "", nil
}

// kernelBufs are reusable stand-in buffers for tensor-level replays.
type kernelBufs struct{ slots [2][]float32 }

func (b *kernelBufs) get(slot, n int) []float32 {
	if cap(b.slots[slot]) < n {
		buf := make([]float32, n)
		r := splitmix{state: uint64(slot) + 1}
		for i := range buf {
			buf[i] = r.float32()
		}
		b.slots[slot] = buf
	}
	return b.slots[slot][:n]
}

// cnnChain describes one traced chain through a CNN rig.
type cnnChain struct {
	tag   string // metric infix, e.g. "ref_b1"
	mode  nn.Numerics
	opt   tango.SimOption
	batch int // 1 = single-sample API
	ops   int
	turn  int // see walk
	warm  int // see walk
	// batchAPI takes the batched path (ClassifyBatch, RunBatch) even for
	// one image, as the server does.
	batchAPI bool
	// parents, when set, hangs op i's outermost span under span parents[i]
	// of a chain the caller started at op id firstOp.
	parents []int
	firstOp int
	// above are the caller's own levels, recorded outside this chain's.
	above []func(i int)
}

// chainResult is the index range of a traced chain's spans.
type chainResult struct {
	from, to int
}

// traceCNN records the chain tango -> core -> networks -> nn op (-> tensor
// kernel on the reference tier), one level at a time.
func (rig *cnnRig) traceCNN(rec *recorder, ch cnnChain, images [][]float32) (chainResult, error) {
	var opts []tango.SimOption
	if ch.opt != nil {
		opts = append(opts, ch.opt)
	}
	batched := ch.batch > 1 || ch.batchAPI
	shape := rig.cb.Network.InputShape
	if batched {
		shape = append([]int{ch.batch}, shape...)
	}
	res := chainResult{from: len(rec.spans)}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// op i's input: one image, or a rotating window of batch images
	imgs := make([][][]float32, ch.ops)
	ins := make([]*tensor.Tensor, ch.ops)
	for i := range imgs {
		imgs[i] = make([][]float32, ch.batch)
		for j := range imgs[i] {
			imgs[i][j] = images[(i+j)%len(images)]
		}
		var err error
		ins[i], err = tensor.FromSlice(flatten(imgs[i]), shape...)
		note(err)
	}
	first := rec.op + 1
	parent := func(int) int { return -1 }
	if ch.parents != nil {
		first = ch.firstOp
		parent = func(i int) int { return ch.parents[i] }
	}
	tops, cores, plans := make([]int, ch.ops), make([]int, ch.ops), make([]int, ch.ops)
	layerIDs := make([][]int, ch.ops)
	fns := ch.above
	level := func(fn func(i int)) { fns = append(fns, fn) }
	level(func(i int) {
		tops[i] = rec.call("Benchmark.Classify", "tango", parent(i), func() {
			var err error
			if batched {
				_, err = rig.tb.ClassifyBatch(imgs[i], opts...)
			} else {
				_, err = rig.tb.Classify(imgs[i][0], opts...)
			}
			note(err)
		})
	})
	level(func(i int) {
		cores[i] = rec.call("core.RunScratch", "core", tops[i], func() {
			var err error
			s := rig.cb.AcquireScratchNumerics(1, ch.mode)
			if batched {
				_, err = rig.cb.RunBatchScratch(ins[i], s)
			} else {
				_, err = rig.cb.RunInferenceScratch(ins[i], s)
			}
			rig.cb.ReleaseScratch(s)
			note(err)
		})
	})
	// The levels below run on the scratch the core level used (the pool
	// hands it back), so the same buffers at the same addresses serve all
	// three and their times differ by the layers' own work, not by where a
	// buffer happened to land.
	s := rig.cb.AcquireScratchNumerics(1, ch.mode)
	defer rig.cb.ReleaseScratch(s)
	level(func(i int) {
		plans[i] = rec.call("Plan.Run", "networks", cores[i], func() {
			var err error
			if batched {
				_, err = rig.plan.RunBatch(ins[i], s)
			} else {
				_, err = rig.plan.Run(ins[i], s)
			}
			note(err)
		})
	})
	layerIn := make([]*tensor.Tensor, len(rig.layers))
	level(func(i int) {
		layerIDs[i] = make([]int, len(rig.layers))
		note(rig.replay(s, ins[i], batched, func(li int, rl *replayLayer, lin *tensor.Tensor, run func()) {
			layerIDs[i][li] = rec.call(rl.class+":"+rl.l.Name, "nn", plans[i], run)
			layerIn[li] = lin
		}))
	})
	var bufs kernelBufs
	level(func(i int) {
		for li := range rig.layers {
			rl := &rig.layers[li]
			var name string
			var run func()
			switch {
			case ch.mode != nn.NumericsReference:
				// the packed weights are private to nn's packs; the
				// tensor.* probes cover the fast kernels instead
			case batched:
				name, run = rl.refBatchKernel(layerIn[li], &bufs)
			default:
				name, run = rl.refKernel(layerIn[li], &bufs)
			}
			if run != nil {
				rec.call(name+":"+rl.l.Name, "tensor", layerIDs[i][li], run)
			}
		}
	})
	rec.levels(walk{firstOp: first, ops: ch.ops, turn: ch.turn, warm: ch.warm}, fns...)
	res.to = len(rec.spans)
	return res, firstErr
}

// secondsBy returns, per op of the span range, the summed seconds of the
// spans match accepts.
func secondsBy(rec *recorder, cr chainResult, match func(span) bool) []float64 {
	sp := rec.spans[cr.from:cr.to]
	return perOp(sp, match, func(i int) float64 { return sp[i].seconds() })
}

func byLayer(layer string) func(span) bool {
	return func(s span) bool { return s.Layer == layer }
}

func byPrefix(layer, prefix string) func(span) bool {
	return func(s span) bool { return s.Layer == layer && strings.HasPrefix(s.Name, prefix) }
}

// sub returns a[i]-b[i].
func sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// ratio returns a[i]/b[i].
func ratio(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

// cnnChainMetrics turns a chain's spans into the nn.* class totals, the
// replay coverage and the walker's self time.
func cnnChainMetrics(m metrics, rec *recorder, cr chainResult, tag string) (walkerSelfMS float64) {
	nnTotal := secondsBy(rec, cr, byLayer("nn"))
	plan := secondsBy(rec, cr, byLayer("networks"))
	for _, class := range []string{"conv", "fc", "pool", "lrn", "other"} {
		m.set("nn."+tag+"_"+class+"_ms", 1e3*median(secondsBy(rec, cr, byPrefix("nn", class+":"))))
	}
	tier, _, _ := strings.Cut(tag, "_") // ref_b1 -> ref
	m.set("nn.replay_coverage_"+tier, median(ratio(nnTotal, plan)))
	return 1e3 * median(sub(plan, nnTotal))
}

// alexnetMACs counts AlexNet's multiply-accumulates exactly, from shapes.
func alexnetMACs(net *networks.Network) float64 {
	var macs int64
	in := net.InputShape
	for li := range net.Layers {
		l := &net.Layers[li]
		switch l.Type {
		case networks.LayerConv:
			macs += l.Conv.MACs(in[1], in[2])
		case networks.LayerFC:
			n := 1
			for _, d := range in {
				n *= d
			}
			macs += int64(n) * int64(l.FCOut)
		}
		in = l.OutShape
	}
	return float64(macs)
}

// traceAlexNet measures everything that needs AlexNet resident: the three
// traced chains, set-up costs by package, and the tier x batch cells no
// workload covers.
func traceAlexNet(m metrics, rec *recorder, seed uint64) (map[string]chainResult, error) {
	// set-up costs by package first, before the rig makes AlexNet resident
	net, err := networks.New("AlexNet")
	if err != nil {
		return nil, err
	}
	var ws *weights.Set
	m.set("weights.synth_alexnet_ms", 1e3*timed(2, func() { ws, err = weights.Synthesize(net) }))
	if err != nil {
		return nil, err
	}
	m.set("core.load_alexnet_ms", 1e3*timed(2, func() { _, err = core.Load("AlexNet") }))
	if err != nil {
		return nil, err
	}
	var plan *networks.Plan
	m.set("networks.plan_build_ms", 1e3*timed(5, func() { plan, err = net.NewPlan(ws) }))
	if err != nil {
		return nil, err
	}
	m.set("networks.pack_fast_ms", 1e3*timed(1, func() { plan.Pack(nn.NumericsFast) }))
	m.set("networks.pack_int8_ms", 1e3*timed(1, func() { plan.Pack(nn.NumericsInt8) }))
	m.set("networks.packed_bytes", float64(plan.PackedBytes()))
	m.set("nn.alexnet_macs", alexnetMACs(net))
	plan, ws = nil, nil
	releaseMemory()

	rig, err := newCNNRig("AlexNet", nn.NumericsFast, nn.NumericsInt8)
	if err != nil {
		return nil, err
	}
	// tensor.pack_a_ms: the tensor-level packing of every AlexNet weight
	// matrix, per convolution group, float panels and int8 rows.
	m.set("tensor.pack_a_ms", 1e3*timed(1, func() {
		for i := range rig.layers {
			rl := &rig.layers[i]
			if rl.w == nil {
				continue
			}
			groups, rows := 1, rl.l.FCOut
			if rl.l.Type == networks.LayerConv {
				rows = rl.l.Conv.OutChannels
				if rl.l.Conv.Groups > 1 {
					groups = rl.l.Conv.Groups
				}
			}
			mRows := rows / groups
			k := rl.w.Len() / rows
			for g := 0; g < groups; g++ {
				a := rl.w.Data()[g*mRows*k : (g+1)*mRows*k]
				tensor.PackA(a, mRows, k)
				tensor.PackInt8(a, mRows, k)
			}
		}
	}))

	r := splitmix{state: seed}
	sel := r.perm(alexPool)[:12]
	images := make([][]float32, len(sel))
	for k, id := range sel {
		images[k] = poolImage(tagAlex, id, alexShape)
	}
	chains := map[string]chainResult{}
	for _, ch := range []cnnChain{
		// turn = ops: AlexNet's two weight copies (the public benchmark's and
		// the core twin's, 244 MB each) evict each other from the last-level
		// cache, so each level runs all its ops before the next starts
		{tag: "ref_b1", mode: nn.NumericsReference, batch: 1, ops: 4, turn: 4, warm: 1},
		{tag: "fast_b1", mode: nn.NumericsFast, opt: tango.WithFastMath(), batch: 1, ops: 10, turn: 10, warm: 1},
		{tag: "int8_b8", mode: nn.NumericsInt8, opt: tango.WithInt8(), batch: 8, ops: 4, turn: 4, warm: 1},
	} {
		cr, err := rig.traceCNN(rec, ch, images)
		if err != nil {
			return nil, err
		}
		chains[ch.tag] = cr
		walker := cnnChainMetrics(m, rec, cr, ch.tag)
		switch ch.tag {
		case "ref_b1":
			m.set("networks.walker_self_ref_ms", walker)
		case "int8_b8":
			m.set("networks.walker_self_int8_b8_ms", walker)
		}
	}

	// the three tier x batch cells no workload covers
	batch8, err := tensor.FromSlice(flatten(images[:8]), 8, 3, 227, 227)
	if err != nil {
		return nil, err
	}
	single, err := tensor.FromSlice(images[0], alexShape...)
	if err != nil {
		return nil, err
	}
	for _, cell := range []struct {
		name  string
		mode  nn.Numerics
		batch bool
		reps  int
	}{
		{"core.alexnet_ref_b8_ms", nn.NumericsReference, true, 2},
		{"core.alexnet_fast_b8_ms", nn.NumericsFast, true, 3},
		{"core.alexnet_int8_b1_ms", nn.NumericsInt8, false, 5},
	} {
		run := func() {
			s := rig.cb.AcquireScratchNumerics(1, cell.mode)
			if cell.batch {
				_, err = rig.cb.RunBatchScratch(batch8, s)
			} else {
				_, err = rig.cb.RunInferenceScratch(single, s)
			}
			rig.cb.ReleaseScratch(s)
		}
		run() // warm: grow the scratch for this geometry
		m.set(cell.name, 1e3*timed(cell.reps, run))
		if err != nil {
			return nil, err
		}
	}
	return chains, nil
}

func flatten(images [][]float32) []float32 {
	var out []float32
	for _, img := range images {
		out = append(out, img...)
	}
	return out
}

// traceCifarSelf measures the thin layers' own cost where it can be
// resolved: CifarNet's single-sample call is ~7 ms, so the public call minus
// the core call (and the core call minus Plan.Run), interleaved per op, is
// not buried under an AlexNet-sized op's jitter.
func traceCifarSelf(m metrics, rec *recorder, rig *cnnRig, images [][]float32) (chainResult, error) {
	ch := cnnChain{tag: "ref_b1", mode: nn.NumericsReference, batch: 1, ops: 60, turn: 2, warm: 2}
	cr, err := rig.traceCNN(rec, ch, images)
	if err != nil {
		return cr, err
	}
	tangoS := secondsBy(rec, cr, byLayer("tango"))
	coreS := secondsBy(rec, cr, byLayer("core"))
	planS := secondsBy(rec, cr, byLayer("networks"))
	m.set("tango.classify_self_us", 1e6*median(sub(tangoS, coreS)))
	m.set("core.self_b1_us", 1e6*median(sub(coreS, planS)))
	return cr, nil
}

// traceLSTM records the forecast chain tango -> core -> networks -> nn step
// -> tensor mat-vec, in turns of 200 ops because each is ~37 us.
func traceLSTM(m metrics, rec *recorder, seed uint64) (chainResult, error) {
	res := chainResult{from: len(rec.spans)}
	tb, err := tango.LoadBenchmark("LSTM")
	if err != nil {
		return res, err
	}
	cb, err := core.Load("LSTM")
	if err != nil {
		return res, err
	}
	plan, err := cb.Plan()
	if err != nil {
		return res, err
	}
	var lw *nn.LSTMWeights
	var fcW, fcB *tensor.Tensor
	fcOut := 0
	for li := range cb.Network.Layers {
		l := &cb.Network.Layers[li]
		get := func(p string, n int) *tensor.Tensor {
			t, gerr := cb.Weights.Get(l.Name, p, n)
			if gerr != nil && err == nil {
				err = gerr
			}
			return t
		}
		switch l.Type {
		case networks.LayerLSTM:
			h, in := l.Hidden, l.InSize
			lw = &nn.LSTMWeights{Hidden: h, Input: in,
				Wi: get("Wi", h*in), Wf: get("Wf", h*in), Wo: get("Wo", h*in), Wc: get("Wc", h*in),
				Ui: get("Ui", h*h), Uf: get("Uf", h*h), Uo: get("Uo", h*h), Uc: get("Uc", h*h),
				Bi: get("Bi", h), Bf: get("Bf", h), Bo: get("Bo", h), Bc: get("Bc", h)}
		case networks.LayerFC:
			fcOut = l.FCOut
			fcW, fcB = get("weights", l.FCOut*lw.Hidden), get("bias", l.FCOut)
		}
	}
	if err != nil {
		return res, err
	}
	r := splitmix{state: seed}
	sel := r.perm(lstmPool)
	h := lw.Hidden
	tmp := make([]float32, h)
	var firstErr error
	note := func(e error) {
		if e != nil && firstErr == nil {
			firstErr = e
		}
	}
	const ops, turn = 4000, 200
	// inputs cycle through the pool, as the workload's do
	hists := make([][]float64, len(sel))
	seqs := make([][]*tensor.Tensor, len(sel))
	for k, id := range sel {
		hists[k] = poolHistory(id)
		for _, v := range hists[k] {
			x := tensor.New(1)
			x.Fill(float32(v))
			seqs[k] = append(seqs[k], x)
		}
	}
	first := rec.op + 1
	tops, cores, plans := make([]int, ops), make([]int, ops), make([]int, ops)
	steps := make([][lstmSteps]int, ops)
	var fns []func(i int)
	level := func(fn func(i int)) { fns = append(fns, fn) }
	level(func(i int) {
		tops[i] = rec.call("Benchmark.Forecast", "tango", -1, func() { _, e := tb.Forecast(hists[i%len(hists)]); note(e) })
	})
	level(func(i int) {
		cores[i] = rec.call("core.RunSequenceScratch", "core", tops[i], func() {
			s := cb.AcquireScratchNumerics(1, nn.NumericsReference)
			_, e := cb.RunSequenceScratch(seqs[i%len(seqs)], s)
			cb.ReleaseScratch(s)
			note(e)
		})
	})
	s := cb.AcquireScratchNumerics(1, nn.NumericsReference) // the scratch the core level used
	defer cb.ReleaseScratch(s)
	level(func(i int) {
		plans[i] = rec.call("Plan.RunSequence", "networks", cores[i], func() { _, e := plan.RunSequence(seqs[i%len(seqs)], s); note(e) })
	})
	var st nn.LSTMState
	level(func(i int) {
		s.BeginRun()
		st = nn.LSTMState{H: s.Arena1(h), C: s.Arena1(h)}
		st.H.Zero()
		st.C.Zero()
		for t, x := range seqs[i%len(seqs)] {
			steps[i][t] = rec.call("LSTMStep", "nn", plans[i], func() { note(s.LSTMStep(lw, st, x)) })
		}
		rec.call("fc:FullyConnected", "nn", plans[i], func() { _, e := s.FullyConnectedPacked(st.H, fcW, fcB, fcOut, nil); note(e) })
	})
	level(func(i int) {
		// a step's gate pre-activations: eight mat-vecs
		for t, x := range seqs[i%len(seqs)] {
			rec.call("MatVecBias:gates", "tensor", steps[i][t], func() {
				for _, g := range [4][2]*tensor.Tensor{{lw.Wi, lw.Ui}, {lw.Wf, lw.Uf}, {lw.Wo, lw.Uo}, {lw.Wc, lw.Uc}} {
					tensor.MatVecBias(tmp, g[0].Data(), x.Data(), nil, h, lw.Input)
					tensor.MatVecBias(tmp, g[1].Data(), st.H.Data(), nil, h, h)
				}
			})
		}
	})
	rec.levels(walk{firstOp: first, ops: ops, turn: turn, warm: turn}, fns...)
	res.to = len(rec.spans)
	if firstErr != nil {
		return res, firstErr
	}
	tangoS := secondsBy(rec, res, byLayer("tango"))
	coreS := secondsBy(rec, res, byLayer("core"))
	m.set("tango.forecast_self_us", 1e6*median(sub(tangoS, coreS)))
	m.set("core.lstm_seq_us", 1e6*median(coreS))
	var stepS, gates []float64
	for _, sp := range rec.spans[res.from:res.to] {
		switch {
		case sp.Layer == "nn" && sp.Name == "LSTMStep":
			stepS = append(stepS, sp.seconds())
		case sp.Layer == "tensor":
			gates = append(gates, sp.seconds()/8)
		}
	}
	m.set("nn.lstm_step_us", 1e6*median(stepS))
	m.set("tensor.matvec_lstm_us", 1e6*median(gates))

	// core.scratch_cycle_ns: acquire + release of a pooled scratch
	const cycles = 200000
	m.set("core.scratch_cycle_ns", 1e9*timed(3, func() {
		for i := 0; i < cycles; i++ {
			cb.ReleaseScratch(cb.AcquireScratchNumerics(1, nn.NumericsReference))
		}
	})/cycles)
	return res, nil
}

// traceTensor times the GEMM families at AlexNet's conv2 group shape (and
// fc6 for the mat-vec), in multiply-accumulates per second.  MACs and bytes
// per call are computed from the shape, not measured.
func traceTensor(m metrics) {
	const (
		mm, k  = 128, 1200
		n1, n8 = 27 * 27, 8 * 27 * 27
	)
	var bufs kernelBufs
	a := bufs.get(0, mm*k)
	bias := make([]float32, mm)
	src := bufs.get(1, k*n8) // B, as k x n8 row-major (or n x k for the NT kernel)
	dst := make([]float32, mm*n8)
	gmacs := func(macs float64, sec float64) float64 { return macs / sec / 1e9 }

	macsNT := float64(mm) * float64(n1) * float64(k)
	m.set("tensor.gemm_nt_gmacs", gmacs(macsNT, timed(5, func() { tensor.Gemm(dst, a, src, bias, mm, n1, k) })))
	m.set("tensor.macs_per_call", macsNT)
	m.set("tensor.bytes_per_call", 4*float64(mm*k+n1*k+mm*n1+mm))

	macs8 := float64(mm) * float64(n8) * float64(k)
	m.set("tensor.gemm_nn_gmacs", gmacs(macs8, timed(3, func() { tensor.GemmNN(dst, a, src, bias, mm, n8, k, n8) })))
	pa := tensor.PackA(a, mm, k)
	m.set("tensor.gemm_fast_gmacs", gmacs(3*macs8, timed(3, func() {
		for i := 0; i < 3; i++ {
			tensor.GemmNNFast(dst, pa, src, bias, n8, n8)
		}
	})))
	panel := make([]float32, tensor.FusedPanelFloats)
	m.set("tensor.gemm_fused_gmacs", gmacs(3*macs8, timed(3, func() {
		for i := 0; i < 3; i++ {
			for p0 := 0; p0 < n8; p0 += tensor.FusedNC {
				nc := min(n8-p0, tensor.FusedNC)
				for kb := 0; kb < k; kb += tensor.FusedKC {
					kc := min(k-kb, tensor.FusedKC)
					for l := 0; l < kc; l++ {
						copy(panel[l*nc:(l+1)*nc], src[(kb+l)*n8+p0:(kb+l)*n8+p0+nc])
					}
					tensor.GemmNNFastAccumPanel(dst[p0:], pa, panel[:kc*nc], bias, kb, kc, nc, n8)
				}
			}
		}
	})))
	pw := tensor.PackInt8(a, mm, k)
	bp := make([]uint8, tensor.Int8PackedLen(pw.KPad(), tensor.FusedNC))
	acc := make([]int32, mm*tensor.FusedNC)
	m.set("tensor.gemm_int8_gmacs", gmacs(3*macs8, timed(3, func() {
		for i := 0; i < 3; i++ {
			for p0 := 0; p0 < n8; p0 += tensor.FusedNC {
				nc := min(n8-p0, tensor.FusedNC)
				xs := tensor.PackColsU8(bp, src[p0:], k, nc, n8, pw.KPad())
				tensor.GemmInt8Panel(dst[p0:], pw, bp, acc, bias, xs, nc, n8)
			}
		}
	})))

	const rows, cols = 4096, 9216 // fc6
	w := make([]float32, rows*cols)
	for i := range w { // touch every page: untouched zero pages all alias one
		w[i] = float32(i&7) * 0.125
	}
	x, y := bufs.get(1, cols), make([]float32, rows)
	m.set("tensor.matvec_gmacs", gmacs(rows*cols, timed(5, func() { tensor.MatVecBias(y, w, x, nil, rows, cols) })))
	m.set("tensor.simd_tier", float64(tensor.DetectedTier()))
}
