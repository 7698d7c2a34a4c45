package networks_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/tensor"
	"tango/internal/weights"
)

// The engine's golden relations, one test each over the shared per-network
// fixture below; -short skips the two heaviest networks in every row:
//
//	engine == direct per layer     TestPlanGoldenEquivalence, TestPlanGoldenEveryRung
//	batch sample == single         TestRunBatchGoldenEquivalence
//	batch of one == single         TestRunBatchOfOneMatchesSingle
//	fast/int8 single ~ reference   TestFastMathGoldenAllNetworks, TestInt8GoldenAllNetworks
//	fast/int8 batch ~ reference    TestFusedBatchGoldenAllNetworks
//	fused batch worker-invariant   TestFusedBatchWorkerDeterminism
//	int8 == pinned digests         TestInt8DigestsAllRungs

// Input seeds: directSeed's direct-reference digests are pinned in
// direct_digests.json and int8Seed's int8 digests in int8_digests.json.
// Every other row runs int8Seed too, so rows share their runs.
const (
	directSeed = 42
	int8Seed   = 57
)

// fixture is one network's shared test state: weights synthesized once per
// test binary, plans per SIMD rung and the copied outputs of every run a
// row has asked for, so no run is computed twice.  Plans, and the packs
// they build, are dropped when the test that made them ends.
type fixture struct {
	net     *networks.Network
	ws      *weights.Set
	plans   map[tensor.SIMDTier]*networks.Plan
	outs    map[runKey]*runOut
	direct  *directDigest            // engine == direct's reference
	checked map[tensor.SIMDTier]bool // engine == direct held on the rung
	last    runKey                   // scratch's rung, tier and workers
	scratch *nn.Scratch              // the previous run's, reused
}

var fixtures = map[string]*fixture{}

// fixtureFor returns name's fixture, building it on first use.
func fixtureFor(t *testing.T, name string) *fixture {
	t.Helper()
	f := fixtures[name]
	if f == nil {
		n, err := networks.New(name)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := weights.Synthesize(n)
		if err != nil {
			t.Fatal(err)
		}
		f = &fixture{net: n, ws: ws, plans: map[tensor.SIMDTier]*networks.Plan{},
			outs: map[runKey]*runOut{}, checked: map[tensor.SIMDTier]bool{}}
		fixtures[name] = f
	}
	t.Cleanup(func() { clear(f.plans); f.scratch = nil })
	return f
}

// plan returns the fixture's plan for rung; runs on it must force rung.
func (f *fixture) plan(t *testing.T, rung tensor.SIMDTier) *networks.Plan {
	t.Helper()
	if p := f.plans[rung]; p != nil {
		return p
	}
	p, err := f.net.NewPlan(f.ws)
	if err != nil {
		t.Fatal(err)
	}
	f.plans[rung] = p
	return p
}

// buildPlan returns name's plan on the detected rung.
func buildPlan(t *testing.T, name string) *networks.Plan {
	return fixtureFor(t, name).plan(t, tensor.DetectedTier())
}

// runKey names one run: n == 0 is one sample through Run or RunSequence,
// n > 0 a batch of samples seed..seed+n-1; workers == 0 runs with no
// scratch.
type runKey struct {
	rung    tensor.SIMDTier
	mode    nn.Numerics
	workers int
	seed    uint64
	n       int
}

func single(mode nn.Numerics, workers int, seed uint64) runKey {
	return runKey{tensor.DetectedTier(), mode, workers, seed, 0}
}

func batchOf(mode nn.Numerics, workers int, seed uint64, n int) runKey {
	return runKey{tensor.DetectedTier(), mode, workers, seed, n}
}

// runOut is a run's output copied out of its scratch: the final output,
// for a single CNN run its logits, and the predicted classes (nil for an
// RNN batch).
type runOut struct {
	out, logits []float32
	classes     []int
}

// out returns k's outputs, running it on the first request.
func (f *fixture) out(t *testing.T, k runKey) *runOut {
	t.Helper()
	if o := f.outs[k]; o != nil {
		return o
	}
	var o runOut
	onRung(k.rung, func() {
		p, s := f.plan(t, k.rung), f.scratchFor(k)
		if k.n == 0 {
			res := runSingle(t, p, s, k.seed)
			o = runOut{clone(res.Output.Data()), clone(logits(p, res)), []int{res.PredictedClass}}
			return
		}
		res := runBatch(t, p, s, k.seed, k.n)
		o = runOut{out: clone(res.Output.Data()), classes: append([]int(nil), res.PredictedClasses...)}
	})
	f.outs[k] = &o
	return &o
}

// scratchFor returns the scratch for a run of k: none for workers 0, the
// previous run's if it had k's rung, tier and workers (so runs reuse a
// scratch's arena as a server does), else a new one.
func (f *fixture) scratchFor(k runKey) *nn.Scratch {
	if k.workers == 0 {
		return nil
	}
	if key := (runKey{rung: k.rung, mode: k.mode, workers: k.workers}); f.scratch == nil || f.last != key {
		f.scratch, f.last = numericsScratch(k.mode), key
		f.scratch.SetWorkers(k.workers)
	}
	return f.scratch
}

// onRung runs fn with the SIMD kernels forced onto rung.
func onRung(rung tensor.SIMDTier, fn func()) {
	defer tensor.SetFastTier(tensor.FastTier())
	tensor.SetFastTier(rung)
	fn()
}

// rungs returns the SIMD ladder's rungs the host can force; verbose runs
// name the ones it lacks.
func rungs(t *testing.T) []tensor.SIMDTier {
	var out []tensor.SIMDTier
	for r := tensor.TierGeneric; r <= tensor.TierAVX512; r++ {
		if r > tensor.DetectedTier() {
			t.Logf("%v rung not available, skipped (detected tier: %v)", r, tensor.DetectedTier())
			continue
		}
		t.Logf("%v rung exercised", r)
		out = append(out, r)
	}
	return out
}

// suite lists every network the engine runs: the paper's seven and the
// MobileNet extension.
func suite() []string {
	return append(networks.Names(), networks.ExtensionNames()...)
}

// forNets runs row as one subtest per network over its fixture; -short
// skips the two heaviest.
func forNets(t *testing.T, names []string, row func(t *testing.T, f *fixture)) {
	for _, name := range names {
		if testing.Short() && (name == "ResNet" || name == "VGGNet") {
			t.Logf("skipping %s in -short mode (the two largest networks)", name)
			continue
		}
		t.Run(name, func(t *testing.T) { row(t, fixtureFor(t, name)) })
	}
}

// cnnInput builds a deterministic input for a CNN plan.
func cnnInput(p *networks.Plan, seed uint64) *tensor.Tensor {
	in := tensor.New(p.Network().InputShape...)
	in.FillUniform(tensor.NewRNG(seed), 0, 1)
	return in
}

// rnnSequence builds a deterministic input sequence for an RNN plan.
func rnnSequence(p *networks.Plan, seed uint64) []*tensor.Tensor {
	n := p.Network()
	r := tensor.NewRNG(seed)
	seq := make([]*tensor.Tensor, seqLen(n))
	for i := range seq {
		x := tensor.New(n.InputShape...)
		x.Fill(0.3 + 0.4*r.Float32())
		seq[i] = x
	}
	return seq
}

func seqLen(n *networks.Network) int {
	if n.SeqLen > 0 {
		return n.SeqLen
	}
	return 2
}

// runSingle runs sample seed through p.
func runSingle(t *testing.T, p *networks.Plan, s *nn.Scratch, seed uint64) *networks.Result {
	t.Helper()
	var res *networks.Result
	var err error
	if p.Network().Kind == networks.KindCNN {
		res, err = p.Run(cnnInput(p, seed), s)
	} else {
		res, err = p.RunSequence(rnnSequence(p, seed), s)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func clone(v []float32) []float32 { return append([]float32(nil), v...) }

// requireBits fails unless got holds want's float32 bit patterns.
func requireBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i, v := range want {
		if math.Float32bits(got[i]) != math.Float32bits(v) {
			t.Fatalf("%s: element %d = %x, want %x (bit-exact)", label, i, math.Float32bits(got[i]), math.Float32bits(v))
		}
	}
}

// TestPlanGoldenEquivalence validates the compute engine end to end on every
// network of the suite (and the MobileNet extension): the GEMM path — serial
// and parallel, with and without a scratch — must reproduce the direct
// reference kernels bit for bit on every layer output.
func TestPlanGoldenEquivalence(t *testing.T) {
	forNets(t, suite(), func(t *testing.T, f *fixture) { checkPlanGolden(t, f, tensor.DetectedTier()) })
}

// TestPlanGoldenEveryRung reruns the CifarNet and AlexNet goldens on every
// rung of the SIMD ladder the host can force: the reference kernels of each
// rung, the portable one that hosts without AVX2 and FMA and other
// architectures run included, must reproduce the direct kernels bit for bit.
func TestPlanGoldenEveryRung(t *testing.T) {
	for _, rung := range rungs(t) {
		for _, name := range []string{"CifarNet", "AlexNet"} {
			t.Run(rung.String()+"/"+name, func(t *testing.T) { checkPlanGolden(t, fixtureFor(t, name), rung) })
		}
	}
}

// The engine is held to the direct reference through per-layer SHA-256
// digests.  pinnedDirect names the networks whose direct-reference digests
// are committed in directDigestsFile rather than recomputed on every run.
// On VGGNet and ResNet the scalar 7-deep direct convolution takes about a
// minute each.  AlexNet's direct run and its engine share lrnCore, so
// only a pinned digest holds its norm1 and norm2 outputs to the bits the
// math.Pow loop wrote.  UPDATE_GOLDEN=1 re-derives the digests from the live
// direct kernels (CI's oracle-digests job does so on every push and fails on
// a diff).
var pinnedDirect = map[string]bool{"AlexNet": true, "VGGNet": true, "ResNet": true}

var directDigestsFile = filepath.Join("testdata", "direct_digests.json")

// directDigest is one network's pinned direct-mode run.
type directDigest struct {
	PredictedClass int           `json:"predicted_class"`
	Layers         []layerDigest `json:"layers"`
}

// layerDigest is the SHA-256 of one layer output: its shape, then its
// float32 bit patterns, little-endian — equal digests mean equal bits.
type layerDigest struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

func digestResult(n *networks.Network, res *networks.Result) directDigest {
	d := directDigest{PredictedClass: res.PredictedClass}
	for li, out := range res.LayerOutputs {
		d.Layers = append(d.Layers, layerDigest{n.Layers[li].Name, digest(out.Shape(), out.Data())})
	}
	return d
}

// digest returns the hex SHA-256 of dims as uint64s, then of data's float32
// bit patterns, all little-endian.
func digest(dims []int, data []float32) string {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	for _, dim := range dims {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(dim))
	}
	for _, v := range data {
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// readDirectDigests loads the pinned digests; a missing file is an empty set.
func readDirectDigests(t *testing.T) map[string]directDigest {
	t.Helper()
	pinned := map[string]directDigest{}
	data, err := os.ReadFile(directDigestsFile)
	if err == nil {
		err = json.Unmarshal(data, &pinned)
	}
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return pinned
}

// directReference returns f's direct-reference digests, computed once: a
// live direct run's, or for pinnedDirect networks the committed ones, which
// UPDATE_GOLDEN=1 first re-derives from a live run.
func (f *fixture) directReference(t *testing.T) directDigest {
	t.Helper()
	if f.direct != nil {
		return *f.direct
	}
	name, update := f.net.Name, os.Getenv("UPDATE_GOLDEN") != ""
	var want directDigest
	if !pinnedDirect[name] || update {
		s := nn.NewScratch()
		s.SetDirect(true)
		want = digestResult(f.net, runSingle(t, f.plan(t, tensor.DetectedTier()), s, directSeed))
	}
	if pinnedDirect[name] {
		pinned := readDirectDigests(t)
		if update {
			pinned[name] = want
			data, err := json.MarshalIndent(pinned, "", " ")
			if err == nil {
				err = os.MkdirAll(filepath.Dir(directDigestsFile), 0o755)
			}
			if err == nil {
				err = os.WriteFile(directDigestsFile, append(data, '\n'), 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var ok bool
		if want, ok = pinned[name]; !ok {
			t.Fatalf("no digests for %s in %s (regenerate with UPDATE_GOLDEN=1)", name, directDigestsFile)
		}
	}
	f.direct = &want
	return want
}

// checkPlanGolden compares every layer output of f's network on the engine
// on rung (one, two and four workers, no scratch) against the direct
// reference.  A rung already checked in this test binary passes at once:
// the detected rung's CifarNet and AlexNet are rows of both golden tests.
func checkPlanGolden(t *testing.T, f *fixture, rung tensor.SIMDTier) {
	if f.checked[rung] {
		t.Logf("engine == direct already held on the %v rung in this run", rung)
		return
	}
	want := f.directReference(t)
	onRung(rung, func() {
		p := f.plan(t, rung)
		for _, c := range []struct {
			label   string
			workers int
		}{{"engine", 1}, {"two-workers", 2}, {"parallel", 4}, {"no-scratch", 0}} {
			got := digestResult(f.net, runSingle(t, p, f.scratchFor(runKey{rung: rung, workers: c.workers}), directSeed))
			if got.PredictedClass != want.PredictedClass {
				t.Fatalf("%s: predicted class %d, want %d", c.label, got.PredictedClass, want.PredictedClass)
			}
			if len(got.Layers) != len(want.Layers) {
				t.Fatalf("%s: %d layer outputs, %d in the reference", c.label, len(got.Layers), len(want.Layers))
			}
			for li, w := range want.Layers {
				if got.Layers[li] != w {
					t.Fatalf("%s: layer %d = %+v, direct reference %+v", c.label, li, got.Layers[li], w)
				}
			}
		}
	})
	f.checked[rung] = true
}

// TestPlanScratchReuseIsDeterministic verifies that repeated runs on one
// scratch (arena reuse) keep producing identical outputs.
func TestPlanScratchReuseIsDeterministic(t *testing.T) {
	p, s := buildPlan(t, "CifarNet"), nn.NewScratch()
	requireReruns(t, func() []float32 { return runSingle(t, p, s, 7).Output.Data() })
}

// requireReruns fails unless three more calls of run return its first
// call's bits.
func requireReruns(t *testing.T, run func() []float32) {
	t.Helper()
	want := clone(run())
	for i := 0; i < 3; i++ {
		requireBits(t, "rerun", run(), want)
	}
}

// TestPlanRunAllocations guards the steady-state allocation budget of the
// compute engine: after warm-up, a CNN inference run with a reused scratch
// must stay within a handful of small allocations (the Result header), at
// one worker and at two.
func TestPlanRunAllocations(t *testing.T) {
	p := buildPlan(t, "CifarNet")
	in := cnnInput(p, 3)
	eachWorkerCount(t, nn.NumericsReference, func(s *nn.Scratch) {
		if _, err := p.Run(in, s); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPlanRunSequenceAllocations guards the RNN steady-state allocation
// budget.
func TestPlanRunSequenceAllocations(t *testing.T) {
	for _, name := range networks.RNNNames() {
		p := buildPlan(t, name)
		seq := rnnSequence(p, 3)
		eachWorkerCount(t, nn.NumericsReference, func(s *nn.Scratch) {
			if _, err := p.RunSequence(seq, s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNewPlanErrors covers plan construction failure modes.
func TestNewPlanErrors(t *testing.T) {
	n, err := networks.New("CifarNet")
	if err != nil {
		t.Fatal(err)
	}
	empty := weights.NewSet("CifarNet")
	if _, err := n.NewPlan(empty); err == nil {
		t.Fatal("NewPlan with empty weights must fail")
	}
	unbuilt := &networks.Network{Name: "x", InputShape: []int{1}}
	if _, err := unbuilt.NewPlan(empty); err == nil {
		t.Fatal("NewPlan before Build must fail")
	}
}

// TestPlanKindMismatch verifies Run/RunSequence reject the wrong workload
// kind.
func TestPlanKindMismatch(t *testing.T) {
	cnn := buildPlan(t, "CifarNet")
	if _, err := cnn.RunSequence(rnnSequence(cnn, 1), nil); err == nil {
		t.Fatal("RunSequence on a CNN plan must fail")
	}
	rnn := buildPlan(t, "GRU")
	if _, err := rnn.Run(tensor.New(1), nil); err == nil {
		t.Fatal("Run on an RNN plan must fail")
	}
}

// TestMain forks every op a multi-worker test runs, however small, so the
// engine's split and fork paths are exercised on every network.
func TestMain(m *testing.M) {
	tensor.ForkMinWork = 0
	os.Exit(m.Run())
}
