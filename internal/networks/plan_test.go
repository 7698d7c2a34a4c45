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

// buildPlan loads a network with its synthesized weights and returns the
// resolved plan.
func buildPlan(t testing.TB, name string) *networks.Plan {
	t.Helper()
	n, err := networks.New(name)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := weights.Synthesize(n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := n.NewPlan(ws)
	if err != nil {
		t.Fatal(err)
	}
	return p
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
	steps := n.SeqLen
	if steps <= 0 {
		steps = 2
	}
	r := tensor.NewRNG(seed)
	seq := make([]*tensor.Tensor, steps)
	for i := range seq {
		x := tensor.New(n.InputShape...)
		x.Fill(0.3 + 0.4*r.Float32())
		seq[i] = x
	}
	return seq
}

// requireBitEqual fails unless a and b are bit-identical tensors.
func requireBitEqual(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i, v := range want.Data() {
		if got.Data()[i] != v {
			t.Fatalf("%s: element %d = %g, want %g (bit-exact)", label, i, got.Data()[i], v)
		}
	}
}

// TestPlanGoldenEquivalence validates the compute engine end to end on every
// network of the suite (and the MobileNet extension): the GEMM path — serial
// and parallel, with and without a scratch — must reproduce the direct
// reference kernels bit for bit on every layer output.
func TestPlanGoldenEquivalence(t *testing.T) {
	names := append(append([]string{}, networks.Names()...), networks.ExtensionNames()...)
	for _, name := range names {
		if testing.Short() && (name == "VGGNet" || name == "ResNet") {
			t.Logf("skipping %s in -short mode (the two largest networks)", name)
			continue
		}
		t.Run(name, func(t *testing.T) { checkPlanGolden(t, name) })
	}
}

// TestPlanGoldenEveryRung reruns the CifarNet and AlexNet goldens on every
// rung of the SIMD ladder the host can force: the reference kernels of each
// rung, the portable one that hosts without AVX2 and FMA and other
// architectures run included, must reproduce the direct kernels bit for bit.
// Verbose runs name the rungs the host lacks.
func TestPlanGoldenEveryRung(t *testing.T) {
	t.Cleanup(func() { tensor.SetFastTier(tensor.DetectedTier()) })
	for tier := tensor.TierGeneric; tier <= tensor.TierAVX512; tier++ {
		if tier > tensor.DetectedTier() {
			t.Logf("%v rung not available, skipped (detected tier: %v)", tier, tensor.DetectedTier())
			continue
		}
		for _, name := range []string{"CifarNet", "AlexNet"} {
			t.Run(tier.String()+"/"+name, func(t *testing.T) {
				tensor.SetFastTier(tier)
				checkPlanGolden(t, name)
			})
		}
	}
}

// pinnedDirect names the networks whose direct-reference outputs are pinned
// as per-layer SHA-256 digests in directDigestsFile rather than recomputed on
// every run.  On VGGNet and ResNet the scalar 7-deep direct convolution takes
// about a minute each.  AlexNet's direct run and its engine share lrnCore, so
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
// float32 bit patterns, little-endian — equal digests mean requireBitEqual.
type layerDigest struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

func digestResult(p *networks.Plan, res *networks.Result) directDigest {
	d := directDigest{PredictedClass: res.PredictedClass}
	for li, out := range res.LayerOutputs {
		h := sha256.New()
		var buf [8]byte
		for _, dim := range out.Shape() {
			binary.LittleEndian.PutUint64(buf[:], uint64(dim))
			h.Write(buf[:])
		}
		for _, v := range out.Data() {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
			h.Write(buf[:4])
		}
		d.Layers = append(d.Layers, layerDigest{p.Network().Layers[li].Name, hex.EncodeToString(h.Sum(nil))})
	}
	return d
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

// checkPlanGolden compares every layer output of one network on the engine
// (one, two and four workers, no scratch) against the direct reference
// kernels — run live, or for pinnedDirect networks read from their committed
// digests.
func checkPlanGolden(t *testing.T, name string) {
	p := buildPlan(t, name)

	serial := nn.NewScratch()
	two := nn.NewScratch()
	two.SetWorkers(2)
	parallel := nn.NewScratch()
	parallel.SetWorkers(4)

	run := func(s *nn.Scratch) (*networks.Result, error) {
		if p.Network().Kind == networks.KindCNN {
			return p.Run(cnnInput(p, 42), s)
		}
		return p.RunSequence(rnnSequence(p, 42), s)
	}
	runDirect := func() *networks.Result {
		direct := nn.NewScratch()
		direct.SetDirect(true)
		ref, err := run(direct)
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}

	// check compares one engine run against the reference.
	var check func(label string, got *networks.Result)
	if pinnedDirect[name] {
		pinned := readDirectDigests(t)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			pinned[name] = digestResult(p, runDirect())
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
		want, ok := pinned[name]
		if !ok {
			t.Fatalf("no digests for %s in %s (regenerate with UPDATE_GOLDEN=1)", name, directDigestsFile)
		}
		check = func(label string, res *networks.Result) {
			got := digestResult(p, res)
			if got.PredictedClass != want.PredictedClass {
				t.Fatalf("%s: predicted class %d, want %d", label, got.PredictedClass, want.PredictedClass)
			}
			if len(got.Layers) != len(want.Layers) {
				t.Fatalf("%s: %d layer outputs, %d pinned", label, len(got.Layers), len(want.Layers))
			}
			for li, w := range want.Layers {
				if got.Layers[li] != w {
					t.Fatalf("%s: layer %d = %+v, direct reference pinned %+v", label, li, got.Layers[li], w)
				}
			}
		}
	} else {
		// Direct-mode outputs alias the direct scratch's arena, which no
		// other run below touches, so they stay valid for comparison.
		ref := runDirect()
		check = func(label string, got *networks.Result) {
			if got.PredictedClass != ref.PredictedClass {
				t.Fatalf("%s: predicted class %d, want %d", label, got.PredictedClass, ref.PredictedClass)
			}
			for li := range ref.LayerOutputs {
				requireBitEqual(t, label+"/"+p.Network().Layers[li].Name,
					got.LayerOutputs[li], ref.LayerOutputs[li])
			}
		}
	}
	for _, c := range []struct {
		label string
		s     *nn.Scratch
	}{{"engine", serial}, {"two-workers", two}, {"parallel", parallel}, {"no-scratch", nil}} {
		got, err := run(c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		check(c.label, got)
	}
}

// TestPlanScratchReuseIsDeterministic verifies that repeated runs on one
// scratch (arena reuse) keep producing identical outputs.
func TestPlanScratchReuseIsDeterministic(t *testing.T) {
	p := buildPlan(t, "CifarNet")
	s := nn.NewScratch()
	in := cnnInput(p, 7)
	first, err := p.Run(in, s)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Output.Clone()
	for i := 0; i < 3; i++ {
		res, err := p.Run(in, s)
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, "rerun", res.Output, want)
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
