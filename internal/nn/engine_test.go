package nn_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"tango"
	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/tensor"
)

// convCase is one convolution geometry to validate.
type convCase struct {
	name     string
	p        nn.ConvParams
	inH, inW int
}

// engineConvCases gathers every distinct convolution geometry used by the
// suite's networks (including the MobileNet extension, which exercises
// depthwise groups), with the spatial dims capped so the direct reference
// stays fast.  Kernel, stride, padding and group structure — everything that
// shapes the im2col lowering — are preserved exactly.
func engineConvCases(t *testing.T) []convCase {
	t.Helper()
	var cases []convCase
	seen := make(map[string]bool)
	names := append(append([]string{}, networks.Names()...), networks.ExtensionNames()...)
	for _, name := range names {
		n, err := networks.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if n.Kind != networks.KindCNN {
			continue
		}
		for li := range n.Layers {
			l := &n.Layers[li]
			if l.Type != networks.LayerConv {
				continue
			}
			var in []int
			if ref := l.Inputs[0]; ref == networks.InputRef {
				in = n.InputShape
			} else {
				in = n.Layers[ref].OutShape
			}
			p := l.Conv
			// Cap the spatial extent: keep at least two output positions per
			// axis so strides and padding still matter.
			capDim := func(in, k, s int) int {
				lim := k + 2*s + 3
				if in < lim {
					return in
				}
				return lim
			}
			inH := capDim(in[1], p.KernelH, p.StrideH)
			inW := capDim(in[2], p.KernelW, p.StrideW)
			key := fmt.Sprintf("%+v/%dx%d", p, inH, inW)
			if seen[key] {
				continue
			}
			seen[key] = true
			cases = append(cases, convCase{name: name + "/" + l.Name, p: p, inH: inH, inW: inW})
		}
	}
	if len(cases) < 20 {
		t.Fatalf("only %d conv cases collected; expected the suite to provide more", len(cases))
	}
	return cases
}

// TestEngineConvMatchesDirect validates the im2col+GEMM convolution against
// the direct reference loop, bit-exactly, over every conv geometry of the
// seven networks (plus extensions), serially and in parallel.
func TestEngineConvMatchesDirect(t *testing.T) {
	r := tensor.NewRNG(99)
	s := nn.NewScratch()
	sp := nn.NewScratch()
	sp.SetWorkers(4)
	for _, c := range engineConvCases(t) {
		in := tensor.New(c.p.InChannels, c.inH, c.inW)
		in.FillNormal(r, 1)
		w := tensor.New(c.p.WeightCount())
		w.FillNormal(r, 0.1)
		b := tensor.New(c.p.OutChannels)
		b.FillNormal(r, 0.05)

		want, err := nn.Conv2DDirect(in, w, b, c.p)
		if err != nil {
			t.Fatalf("%s: direct: %v", c.name, err)
		}
		for _, run := range []struct {
			label string
			fn    func() (*tensor.Tensor, error)
		}{
			{"fresh", func() (*tensor.Tensor, error) { return nn.NewScratch().Conv2DPacked(in, w, b, c.p, nil) }},
			{"scratch", func() (*tensor.Tensor, error) { return s.Conv2DPacked(in, w, b, c.p, nil) }},
			{"parallel", func() (*tensor.Tensor, error) { return sp.Conv2DPacked(in, w, b, c.p, nil) }},
		} {
			got, err := run.fn()
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, run.label, err)
			}
			if !tensor.SameShape(got, want) {
				t.Fatalf("%s/%s: shape %v, want %v", c.name, run.label, got.Shape(), want.Shape())
			}
			for i, v := range want.Data() {
				if got.Data()[i] != v {
					t.Fatalf("%s/%s: element %d = %g, want %g (bit-exact)", c.name, run.label, i, got.Data()[i], v)
				}
			}
			// The arena reuses outputs across runs within this loop; each
			// comparison happens before the next run, so reset explicitly.
			s.BeginRun()
			sp.BeginRun()
		}
	}
}

// TestEngineConvNoBias covers the nil-bias path of the GEMM lowering.
func TestEngineConvNoBias(t *testing.T) {
	r := tensor.NewRNG(5)
	p := nn.ConvParams{InChannels: 6, OutChannels: 10, KernelH: 3, KernelW: 3,
		StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 2}
	in := tensor.New(6, 13, 11)
	in.FillNormal(r, 1)
	w := tensor.New(p.WeightCount())
	w.FillNormal(r, 0.2)
	want, err := nn.Conv2DDirect(in, w, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nn.NewScratch().Conv2DPacked(in, w, nil, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if got.Data()[i] != v {
			t.Fatalf("element %d = %g, want %g", i, got.Data()[i], v)
		}
	}
}

// TestEngineFullyConnectedMatchesScalar validates the blocked FC kernel
// against the scalar reference (direct mode), bit-exactly, serial and
// parallel.
func TestEngineFullyConnectedMatchesScalar(t *testing.T) {
	r := tensor.NewRNG(17)
	direct := nn.NewScratch()
	direct.SetDirect(true)
	par := nn.NewScratch()
	par.SetWorkers(3)
	for _, c := range []struct{ in, out int }{{9, 4}, {128, 10}, {700, 33}, {9216, 64}} {
		x := tensor.New(c.in)
		x.FillNormal(r, 1)
		w := tensor.New(c.out * c.in)
		w.FillNormal(r, 0.1)
		b := tensor.New(c.out)
		b.FillNormal(r, 0.05)
		want, err := direct.FullyConnectedPacked(x, w, b, c.out, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*nn.Scratch{nn.NewScratch(), par} {
			got, err := s.FullyConnectedPacked(x, w, b, c.out, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range want.Data() {
				if got.Data()[i] != v {
					t.Fatalf("fc %dx%d: element %d = %g, want %g", c.out, c.in, i, got.Data()[i], v)
				}
			}
		}
		direct.BeginRun()
		par.BeginRun()
	}
}

// lstmFixture builds deterministic LSTM weights.
func lstmFixture(t *testing.T, hidden, in int) *nn.LSTMWeights {
	t.Helper()
	r := tensor.NewRNG(23)
	mk := func(n int) *tensor.Tensor {
		w := tensor.New(n)
		w.FillNormal(r, 0.2)
		return w
	}
	w := &nn.LSTMWeights{
		Hidden: hidden, Input: in,
		Wi: mk(hidden * in), Wf: mk(hidden * in), Wo: mk(hidden * in), Wc: mk(hidden * in),
		Ui: mk(hidden * hidden), Uf: mk(hidden * hidden), Uo: mk(hidden * hidden), Uc: mk(hidden * hidden),
		Bi: mk(hidden), Bf: mk(hidden), Bo: mk(hidden), Bc: mk(hidden),
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

// prefix returns the first steps rows of a (total, in) sequence as a
// (steps, in) sequence.
func prefix(t *testing.T, seq *tensor.Tensor, steps int) *tensor.Tensor {
	t.Helper()
	in := seq.Dim(1)
	p, err := tensor.FromSlice(seq.Data()[:steps*in], steps, in)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// requireState fails unless the engine's hidden state equals the cell's
// bit for bit.
func requireState(t *testing.T, label string, step int, got, want *tensor.Tensor) {
	t.Helper()
	for i, v := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("%s step %d: hidden state diverged at %d: %g vs %g", label, step, i, got.Data()[i], v)
		}
	}
}

// TestEngineLSTMStepMatchesCell validates the LSTM op, run over every prefix
// of a multi-step sequence, and the LSTMStep forwarder against the reference
// cell, bit-exactly.
func TestEngineLSTMStepMatchesCell(t *testing.T) {
	const hidden, in, steps = 100, 1, 5
	w := lstmFixture(t, hidden, in)
	seq := tensor.New(steps, in)
	seq.FillNormal(tensor.NewRNG(31), 1)
	ref := nn.NewLSTMState(hidden)
	eng := nn.LSTMState{H: tensor.New(hidden), C: tensor.New(hidden)}
	s := nn.NewScratch()
	for step := 0; step < steps; step++ {
		x := tensor.New(in)
		copy(x.Data(), seq.Data()[step*in:(step+1)*in])
		var err error
		ref, err = nn.LSTMCell(w, ref, x)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LSTMStep(w, eng, x); err != nil {
			t.Fatal(err)
		}
		requireState(t, "LSTMStep", step, eng.H, ref.H)
		requireState(t, "LSTMStep cell", step, eng.C, ref.C)
		s.BeginRun()
		h, err := s.LSTM(prefix(t, seq, step+1), w, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireState(t, "LSTM", step, h, ref.H)
	}
}

// TestEngineGRUStepMatchesCell validates the GRU op, run over every prefix of
// a multi-step sequence, against the reference cell, bit-exactly.
func TestEngineGRUStepMatchesCell(t *testing.T) {
	const hidden, in, steps = 100, 1, 5
	r := tensor.NewRNG(37)
	mk := func(n int) *tensor.Tensor {
		w := tensor.New(n)
		w.FillNormal(r, 0.2)
		return w
	}
	w := &nn.GRUWeights{
		Hidden: hidden, Input: in,
		Wr: mk(hidden * in), Wz: mk(hidden * in), Wh: mk(hidden * in),
		Ur: mk(hidden * hidden), Uz: mk(hidden * hidden), Uh: mk(hidden * hidden),
		Br: mk(hidden), Bz: mk(hidden), Bh: mk(hidden),
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	seq := tensor.New(steps, in)
	seq.FillNormal(r, 1)
	ref := tensor.New(hidden)
	s := nn.NewScratch()
	for step := 0; step < steps; step++ {
		x := tensor.New(in)
		copy(x.Data(), seq.Data()[step*in:(step+1)*in])
		next, err := nn.GRUCell(w, ref, x)
		if err != nil {
			t.Fatal(err)
		}
		ref = next
		s.BeginRun()
		h, err := s.GRU(prefix(t, seq, step+1), w, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireState(t, "GRU", step, h, ref)
	}
}

// TestDenseValidation covers the hardened argument checks of Softmax,
// MatVec and FullyConnected.
func TestDenseValidation(t *testing.T) {
	if _, err := nn.NewScratch().Softmax(nil); err == nil {
		t.Error("softmax(nil) must error")
	}
	if _, err := nn.MatVec(nil, tensor.New(3), 3, 3); err == nil {
		t.Error("matvec with nil matrix must error")
	}
	if _, err := nn.MatVec(tensor.New(9), nil, 3, 3); err == nil {
		t.Error("matvec with nil vector must error")
	}
	if _, err := nn.MatVec(tensor.New(9), tensor.New(3), 0, 3); err == nil {
		t.Error("matvec with zero rows must error")
	}
	if _, err := nn.NewScratch().FullyConnectedPacked(nil, tensor.New(9), nil, 3, nil); err == nil {
		t.Error("fc with nil input must error")
	}
	if _, err := nn.NewScratch().FullyConnectedPacked(tensor.New(3), nil, nil, 3, nil); err == nil {
		t.Error("fc with nil weights must error")
	}
}

// Benchmarks for the compute engine's hot kernels.

func BenchmarkConv(b *testing.B) {
	// AlexNet conv2: 96 -> 256 channels, 5x5, pad 2, 2 groups, 27x27 output.
	p := nn.ConvParams{InChannels: 96, OutChannels: 256, KernelH: 5, KernelW: 5,
		StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, Groups: 2}
	r := tensor.NewRNG(1)
	in := tensor.New(96, 27, 27)
	in.FillNormal(r, 1)
	w := tensor.New(p.WeightCount())
	w.FillNormal(r, 0.1)
	bias := tensor.New(256)
	for _, bc := range []struct {
		name     string
		s        *nn.Scratch
		portable bool
	}{
		{"direct", func() *nn.Scratch { s := nn.NewScratch(); s.SetDirect(true); return s }(), false},
		{"gemm", nn.NewScratch(), false},
		{"gemm-portable", nn.NewScratch(), true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.portable {
				tensor.SetFastTier(tensor.TierGeneric)
				b.Cleanup(func() { tensor.SetFastTier(tensor.DetectedTier()) })
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.s.BeginRun()
				if _, err := bc.s.Conv2DPacked(in, w, bias, p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDense(b *testing.B) {
	// AlexNet fc6 geometry: 9216 -> 4096.
	const in, out = 9216, 4096
	r := tensor.NewRNG(2)
	x := tensor.New(in)
	x.FillNormal(r, 1)
	w := tensor.New(out * in)
	w.FillNormal(r, 0.02)
	bias := tensor.New(out)
	for _, bc := range []struct {
		name string
		s    *nn.Scratch
	}{
		{"scalar", func() *nn.Scratch { s := nn.NewScratch(); s.SetDirect(true); return s }()},
		{"blocked", nn.NewScratch()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.s.BeginRun()
				if _, err := bc.s.FullyConnectedPacked(x, w, bias, out, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPool2D: the first pooling layer of CifarNet (padded 3x3/2 over
// 32x32x32), of AlexNet (3x3/2 over 96x55x55) and of VGGNet (2x2/2 over
// 64x224x224), on each rung.
func BenchmarkPool2D(b *testing.B) {
	for _, g := range []struct {
		name    string
		c, h, w int
		p       nn.PoolParams
	}{
		{"CifarNet-pool1", 32, 32, 32, nn.PoolParams{Kind: nn.MaxPool, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
		{"AlexNet-pool1", 96, 55, 55, nn.PoolParams{Kind: nn.MaxPool, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2}},
		{"VGGNet-pool1", 64, 224, 224, nn.PoolParams{Kind: nn.MaxPool, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}},
	} {
		in := tensor.New(g.c, g.h, g.w)
		in.FillNormal(tensor.NewRNG(4), 1)
		for _, rung := range []string{"detected", "portable"} {
			b.Run(g.name+"/"+rung, func(b *testing.B) {
				if rung == "portable" {
					tensor.SetFastTier(tensor.TierGeneric)
					b.Cleanup(func() { tensor.SetFastTier(tensor.DetectedTier()) })
				}
				s := nn.NewScratch()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.BeginRun()
					if _, err := s.Pool2D(in, g.p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkLSTMCell(b *testing.B) {
	const hidden, in = 100, 1
	r := tensor.NewRNG(3)
	mk := func(n int) *tensor.Tensor {
		w := tensor.New(n)
		w.FillNormal(r, 0.2)
		return w
	}
	w := &nn.LSTMWeights{
		Hidden: hidden, Input: in,
		Wi: mk(hidden * in), Wf: mk(hidden * in), Wo: mk(hidden * in), Wc: mk(hidden * in),
		Ui: mk(hidden * hidden), Uf: mk(hidden * hidden), Uo: mk(hidden * hidden), Uc: mk(hidden * hidden),
		Bi: mk(hidden), Bf: mk(hidden), Bo: mk(hidden), Bc: mk(hidden),
	}
	x := tensor.New(in)
	x.Fill(0.5)
	b.Run("cell", func(b *testing.B) {
		b.ReportAllocs()
		st := nn.NewLSTMState(hidden)
		for i := 0; i < b.N; i++ {
			var err error
			st, err = nn.LSTMCell(w, st, x)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("step", func(b *testing.B) {
		b.ReportAllocs()
		s := nn.NewScratch()
		st := nn.LSTMState{H: tensor.New(hidden), C: tensor.New(hidden)}
		for i := 0; i < b.N; i++ {
			if err := s.LSTMStep(w, st, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkClassifyAlexNet(b *testing.B) {
	bm, err := tango.LoadBenchmark("AlexNet")
	if err != nil {
		b.Fatal(err)
	}
	img, _, err := bm.SampleImage(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.Classify(img); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScratchHelpersStopWithScratch: a Scratch's worker team starts its
// helpers on the first fork; dropping 100 such Scratches and collecting them
// must bring the goroutine count back.
func TestScratchHelpersStopWithScratch(t *testing.T) {
	in := tensor.New(8, 6, 6)
	in.FillUniform(tensor.NewRNG(5), -1, 1)
	// Helpers of Scratches that earlier tests dropped may still be exiting,
	// and a snapshot that counts them would see fewer than 200 new helpers
	// below.  Collect and wait until the count stops falling; two
	// collections, because the first may only move a pooled Scratch to the
	// pool's victim cache.
	before := runtime.NumGoroutine()
	for {
		runtime.GC()
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= before {
			break
		}
		before = n
	}
	scratches := make([]*nn.Scratch, 100)
	for i := range scratches {
		scratches[i] = nn.NewScratch()
		scratches[i].SetWorkers(3)
		if _, err := scratches[i].LRN(in, nn.DefaultLRN()); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n < before+200 {
		t.Fatalf("100 three-worker scratches run %d helpers, want 200", n-before)
	}
	clear(scratches)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after dropping 100 scratches", before, after)
		}
	}
}

// TestMain forks every op a multi-worker test runs, however small, so the
// split and fork paths are exercised on small layers too.
func TestMain(m *testing.M) {
	tensor.ForkMinWork = 0
	os.Exit(m.Run())
}
