package nn

import (
	"math"
	"testing"
	"testing/quick"

	"tango/internal/tensor"
)

func TestPoolParamsValidate(t *testing.T) {
	good := PoolParams{Kind: MaxPool, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []PoolParams{
		{KernelH: 0, KernelW: 2, StrideH: 2, StrideW: 2},
		{KernelH: 2, KernelW: 2, StrideH: 0, StrideW: 2},
		{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2, PadH: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestPoolKindString(t *testing.T) {
	if MaxPool.String() != "max" || AvgPool.String() != "avg" {
		t.Error("unexpected pool kind names")
	}
}

func TestMaxPoolKnown(t *testing.T) {
	in := mustTensor(t, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out, err := NewScratch().Pool2D(in, PoolParams{Kind: MaxPool, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Errorf("out[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
}

func TestAvgPoolKnown(t *testing.T) {
	in := mustTensor(t, []float32{
		1, 2,
		3, 4,
	}, 1, 2, 2)
	out, err := NewScratch().Pool2D(in, PoolParams{Kind: AvgPool, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || math.Abs(float64(out.Data()[0]-2.5)) > 1e-6 {
		t.Errorf("avg pool = %v, want [2.5]", out.Data())
	}
}

func TestPoolCeilMode(t *testing.T) {
	// Ceil and floor modes differ when (in - k) is not a multiple of the
	// stride: for a 14-wide input with k=3, s=2, floor gives (14-3)/2+1 = 6
	// while Caffe-style ceil gives ceil(11/2)+1 = 7.
	p := PoolParams{Kind: MaxPool, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, CeilMode: true}
	h, w := p.OutputDims(14, 14)
	if h != 7 || w != 7 {
		t.Errorf("ceil mode dims = %dx%d, want 7x7", h, w)
	}
	p.CeilMode = false
	h, w = p.OutputDims(14, 14)
	if h != 6 || w != 6 {
		t.Errorf("floor mode dims = %dx%d, want 6x6", h, w)
	}
}

func TestPoolErrors(t *testing.T) {
	flat := tensor.New(8)
	if _, err := NewScratch().Pool2D(flat, PoolParams{Kind: MaxPool, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}); err == nil {
		t.Error("non-CHW input should fail")
	}
	small := tensor.New(1, 1, 1)
	if _, err := NewScratch().Pool2D(small, PoolParams{Kind: MaxPool, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}); err == nil {
		t.Error("window larger than unpadded input should fail")
	}
	if _, err := NewScratch().Pool2D(small, PoolParams{Kind: MaxPool, KernelH: 0, KernelW: 3, StrideH: 1, StrideW: 1}); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := mustTensor(t, []float32{
		1, 2, 3, 4, // channel 0: mean 2.5
		10, 10, 10, 10, // channel 1: mean 10
	}, 2, 2, 2)
	out, err := NewScratch().GlobalAvgPool(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("global pool output length %d, want 2", out.Len())
	}
	if math.Abs(float64(out.Data()[0]-2.5)) > 1e-6 || out.Data()[1] != 10 {
		t.Errorf("global pool = %v", out.Data())
	}
	if _, err := NewScratch().GlobalAvgPool(tensor.New(4)); err == nil {
		t.Error("non-CHW input should fail")
	}
}

// Property: max pooling never produces a value larger than the input maximum
// or smaller than the input minimum.
func TestQuickMaxPoolBounds(t *testing.T) {
	f := func(seed uint64) bool {
		in := tensor.New(2, 6, 6)
		in.FillNormal(tensor.NewRNG(seed), 3)
		out, err := NewScratch().Pool2D(in, PoolParams{Kind: MaxPool, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2})
		if err != nil {
			return false
		}
		return out.Max() <= in.Max() && out.Min() >= in.Min()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: average pooling preserves the global mean when the window tiles
// the input exactly.
func TestQuickAvgPoolMeanPreserved(t *testing.T) {
	f := func(seed uint64) bool {
		in := tensor.New(1, 4, 4)
		in.FillUniform(tensor.NewRNG(seed), -1, 1)
		out, err := NewScratch().Pool2D(in, PoolParams{Kind: AvgPool, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2})
		if err != nil {
			return false
		}
		return math.Abs(in.Sum()/float64(in.Len())-out.Sum()/float64(out.Len())) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// poolNaive is the reference loop pool2DCore must match bit for bit: every
// tap tested against the image bounds, in (ky, kx) order.
func poolNaive(in []float32, c, inH, inW, outH, outW int, p PoolParams) []float32 {
	out := make([]float32, c*outH*outW)
	for i := range out {
		ch, oy, ox := i/(outH*outW), i/outW%outH, i%outW
		acc, count := float32(0), 0
		if p.Kind == MaxPool {
			acc = float32(math.Inf(-1))
		}
		for t := 0; t < p.KernelH*p.KernelW; t++ {
			iy, ix := oy*p.StrideH-p.PadH+t/p.KernelW, ox*p.StrideW-p.PadW+t%p.KernelW
			if iy < 0 || iy >= inH || ix < 0 || ix >= inW {
				continue
			}
			if v := in[(ch*inH+iy)*inW+ix]; p.Kind == AvgPool {
				acc += v
			} else if v > acc {
				acc = v
			}
			count++
		}
		if count == 0 {
			acc = 0
		} else if p.Kind == AvgPool {
			acc /= float32(count)
		}
		out[i] = acc
	}
	return out
}

// suitePools is every pooling layer of the benchmark networks: its
// parameters and the spatial size of the input it sees (channels do not
// change the geometry, so the test runs a batch of two 3-channel samples).
func suitePools() []struct {
	name     string
	p        PoolParams
	inH, inW int
} {
	max3 := PoolParams{Kind: MaxPool, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2}
	max3ceil, max3pad, avg3pad, max2 := max3, max3, max3, max3
	max3ceil.CeilMode = true
	max3pad.PadH, max3pad.PadW = 1, 1
	avg3pad.Kind, avg3pad.PadH, avg3pad.PadW = AvgPool, 1, 1
	max2.KernelH, max2.KernelW = 2, 2
	return []struct {
		name     string
		p        PoolParams
		inH, inW int
	}{
		{"AlexNet/pool1", max3, 55, 55}, {"AlexNet/pool2", max3, 27, 27}, {"AlexNet/pool5", max3, 13, 13},
		{"CifarNet/pool1", max3pad, 32, 32}, {"CifarNet/pool2", avg3pad, 16, 16}, {"CifarNet/pool3", avg3pad, 8, 8},
		{"ResNet/pool1", max3ceil, 112, 112},
		{"SqueezeNet/pool1", max3ceil, 111, 111}, {"SqueezeNet/pool4", max3ceil, 55, 55}, {"SqueezeNet/pool8", max3ceil, 27, 27},
		{"VGGNet/pool1", max2, 224, 224}, {"VGGNet/pool2", max2, 112, 112}, {"VGGNet/pool3", max2, 56, 56},
		{"VGGNet/pool4", max2, 28, 28}, {"VGGNet/pool5", max2, 14, 14},
	}
}

// TestPool2DMatchesNaive: every suite pooling geometry over a batch of two
// 3-channel samples at one and four workers, then random ones — padding,
// ceil-mode overhang, stride larger than the kernel, 1x1 windows — on one to
// three workers, over inputs salted with -0, ±Inf and NaN, max and average,
// bit for bit against poolNaive (an average that is NaN may be any NaN), on
// the detected rung and with the portable one forced.
func TestPool2DMatchesNaive(t *testing.T) {
	for _, rung := range []string{"detected", "portable"} {
		t.Run(rung, func(t *testing.T) {
			if rung == "portable" {
				portableRung(t)
			}
			testPool2DMatchesNaive(t)
		})
	}
}

func testPool2DMatchesNaive(t *testing.T) {
	rng := tensor.NewRNG(73)
	pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	salt := []float32{float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0xffc00001)}
	check := func(p PoolParams, workers int, dims ...int) { // dims: [n,] c, inH, inW
		t.Helper()
		in := tensor.New(dims...)
		inH, inW := dims[len(dims)-2], dims[len(dims)-1]
		in.FillUniform(rng, -1, 1)
		for i := range in.Data() {
			if pick(4) == 0 {
				in.Data()[i] = salt[pick(len(salt))]
			}
		}
		s := NewScratch()
		s.SetWorkers(workers) // a split over channels must not move a bit
		got, err := s.Pool2D(in, p)
		if err != nil {
			t.Fatalf("%+v on %dx%d: %v", p, inH, inW, err)
		}
		outH, outW := p.OutputDims(inH, inW)
		want := poolNaive(in.Data(), in.Len()/(inH*inW), inH, inW, outH, outW, p)
		for i, w := range want {
			g := got.Data()[i]
			if p.Kind == AvgPool && g != g && w != w {
				continue // which NaN a sum of two NaNs is, is the compiler's operand order, not Go's
			}
			if math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("%+v on %v, %d workers: output %d = %v (%#x), naive %v (%#x)",
					p, dims, workers, i, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	}
	for _, g := range suitePools() {
		for _, workers := range []int{1, 4} {
			check(g.p, workers, 2, 3, g.inH, g.inW)
		}
	}
	for iter := 0; iter < 400; iter++ {
		p := PoolParams{
			Kind:    PoolKind(pick(2)),
			KernelH: 1 + pick(4), KernelW: 1 + pick(4),
			StrideH: 1 + pick(5), StrideW: 1 + pick(5),
			CeilMode: pick(2) == 1,
		}
		if pick(2) == 0 {
			p.StrideW = 2 // every suite layer's stride
		}
		p.PadH, p.PadW = pick(p.KernelH+2), pick(p.KernelW+2) // up to a column of windows no tap reaches
		check(p, 1+iter%3, 1+pick(3), p.KernelH+pick(12), p.KernelW+pick(12))
	}
}
