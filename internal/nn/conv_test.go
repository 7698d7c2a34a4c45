package nn

import (
	"math"
	"testing"
	"testing/quick"

	"tango/internal/tensor"
)

func mustTensor(t *testing.T, data []float32, shape ...int) *tensor.Tensor {
	t.Helper()
	tt, err := tensor.FromSlice(data, shape...)
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestConvParamsValidate(t *testing.T) {
	good := ConvParams{InChannels: 3, OutChannels: 8, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []ConvParams{
		{InChannels: 0, OutChannels: 8, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1},
		{InChannels: 3, OutChannels: 8, KernelH: 0, KernelW: 3, StrideH: 1, StrideW: 1},
		{InChannels: 3, OutChannels: 8, KernelH: 3, KernelW: 3, StrideH: 0, StrideW: 1},
		{InChannels: 3, OutChannels: 8, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: -1},
		{InChannels: 3, OutChannels: 8, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, Groups: 2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestConvOutputDims(t *testing.T) {
	cases := []struct {
		p            ConvParams
		inH, inW     int
		wantH, wantW int
	}{
		// AlexNet conv1: 227x227, k=11, s=4 -> 55x55.
		{ConvParams{InChannels: 3, OutChannels: 96, KernelH: 11, KernelW: 11, StrideH: 4, StrideW: 4}, 227, 227, 55, 55},
		// VGG conv: 224x224, k=3, s=1, p=1 -> 224x224.
		{ConvParams{InChannels: 3, OutChannels: 64, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 224, 224, 224, 224},
		// ResNet conv1: 224x224, k=7, s=2, p=3 -> 112x112.
		{ConvParams{InChannels: 3, OutChannels: 64, KernelH: 7, KernelW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, 224, 224, 112, 112},
		// SqueezeNet conv1: 227x227, k=7, s=2 -> 111x111.
		{ConvParams{InChannels: 3, OutChannels: 96, KernelH: 7, KernelW: 7, StrideH: 2, StrideW: 2}, 227, 227, 111, 111},
	}
	for i, c := range cases {
		h, w := c.p.OutputDims(c.inH, c.inW)
		if h != c.wantH || w != c.wantW {
			t.Errorf("case %d: OutputDims = %dx%d, want %dx%d", i, h, w, c.wantH, c.wantW)
		}
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A 1x1 kernel with weight 1 must reproduce the input.
	in := mustTensor(t, []float32{1, 2, 3, 4}, 1, 2, 2)
	w := mustTensor(t, []float32{1}, 1)
	out, err := NewScratch().Conv2DPacked(in, w, nil, ConvParams{InChannels: 1, OutChannels: 1, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ApproxEqual(in, out, 1e-6) {
		t.Errorf("identity conv mismatch: %v", out.Data())
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 1 channel 3x3 input, 2x2 kernel of ones, stride 1, no pad.
	in := mustTensor(t, []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	w := mustTensor(t, []float32{1, 1, 1, 1}, 4)
	out, err := NewScratch().Conv2DPacked(in, w, nil, ConvParams{InChannels: 1, OutChannels: 1, KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{12, 16, 24, 28}
	for i, v := range want {
		if math.Abs(float64(out.Data()[i]-v)) > 1e-5 {
			t.Errorf("out[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
}

func TestConv2DBias(t *testing.T) {
	in := mustTensor(t, []float32{1, 1, 1, 1}, 1, 2, 2)
	w := mustTensor(t, []float32{0}, 1)
	b := mustTensor(t, []float32{5}, 1)
	out, err := NewScratch().Conv2DPacked(in, w, b, ConvParams{InChannels: 1, OutChannels: 1, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Data() {
		if v != 5 {
			t.Errorf("bias not applied: %v", out.Data())
			break
		}
	}
}

func TestConv2DPadding(t *testing.T) {
	// With pad=1 and a 3x3 kernel of ones on a single-pixel input, the output
	// keeps the input size and the center equals the pixel value.
	in := mustTensor(t, []float32{2}, 1, 1, 1)
	w := mustTensor(t, []float32{1, 1, 1, 1, 1, 1, 1, 1, 1}, 9)
	out, err := NewScratch().Conv2DPacked(in, w, nil, ConvParams{InChannels: 1, OutChannels: 1, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(1) != 1 || out.Dim(2) != 1 {
		t.Fatalf("padded conv output shape %v, want 1x1x1", out.Shape())
	}
	if out.At(0, 0, 0) != 2 {
		t.Errorf("padded conv value %v, want 2", out.At(0, 0, 0))
	}
}

func TestConv2DMultiChannel(t *testing.T) {
	// Two input channels summed by a 1x1 kernel of ones.
	in := mustTensor(t, []float32{
		1, 2, 3, 4, // channel 0
		10, 20, 30, 40, // channel 1
	}, 2, 2, 2)
	w := mustTensor(t, []float32{1, 1}, 2)
	out, err := NewScratch().Conv2DPacked(in, w, nil, ConvParams{InChannels: 2, OutChannels: 1, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{11, 22, 33, 44}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Errorf("out[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
}

func TestConv2DGroups(t *testing.T) {
	// Grouped conv with 2 groups: each output channel sees only its half of
	// the input channels.
	in := mustTensor(t, []float32{
		1, 1, 1, 1, // ch0
		2, 2, 2, 2, // ch1
	}, 2, 2, 2)
	w := mustTensor(t, []float32{1, 1}, 2) // one 1x1 weight per output channel
	out, err := NewScratch().Conv2DPacked(in, w, nil, ConvParams{InChannels: 2, OutChannels: 2, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, Groups: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0, 0) != 1 || out.At(1, 0, 0) != 2 {
		t.Errorf("grouped conv mismatch: %v", out.Data())
	}
}

func TestConv2DErrors(t *testing.T) {
	in := tensor.New(3, 8, 8)
	w := tensor.New(10)
	if _, err := NewScratch().Conv2DPacked(in, w, nil, ConvParams{InChannels: 3, OutChannels: 4, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}, nil); err == nil {
		t.Error("wrong weight count should fail")
	}
	w2 := tensor.New(4 * 3 * 3 * 3)
	badBias := tensor.New(3)
	if _, err := NewScratch().Conv2DPacked(in, w2, badBias, ConvParams{InChannels: 3, OutChannels: 4, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}, nil); err == nil {
		t.Error("wrong bias count should fail")
	}
	if _, err := NewScratch().Conv2DPacked(in, w2, nil, ConvParams{InChannels: 5, OutChannels: 4, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}, nil); err == nil {
		t.Error("channel mismatch should fail")
	}
	flat := tensor.New(8)
	if _, err := NewScratch().Conv2DPacked(flat, w2, nil, ConvParams{InChannels: 3, OutChannels: 4, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}, nil); err == nil {
		t.Error("non-CHW input should fail")
	}
	big := tensor.New(3, 2, 2)
	w3 := tensor.New(4 * 3 * 5 * 5)
	if _, err := NewScratch().Conv2DPacked(big, w3, nil, ConvParams{InChannels: 3, OutChannels: 4, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}, nil); err == nil {
		t.Error("kernel larger than input without padding should fail")
	}
}

func TestConvMACs(t *testing.T) {
	// AlexNet conv1: 96*55*55*3*11*11 = 105,415,200 MACs.
	p := ConvParams{InChannels: 3, OutChannels: 96, KernelH: 11, KernelW: 11, StrideH: 4, StrideW: 4}
	if got := p.MACs(227, 227); got != 105415200 {
		t.Errorf("MACs = %d, want 105415200", got)
	}
}

// Property: convolution is linear in the input — conv(a*x) == a*conv(x).
func TestQuickConvLinearity(t *testing.T) {
	f := func(seed uint64, scaleRaw uint8) bool {
		r := tensor.NewRNG(seed)
		scale := float32(scaleRaw%7) + 1
		in := tensor.New(2, 5, 5)
		in.FillNormal(r, 1)
		w := tensor.New(3 * 2 * 3 * 3)
		w.FillNormal(r, 0.5)
		p := ConvParams{InChannels: 2, OutChannels: 3, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		out1, err := NewScratch().Conv2DPacked(in, w, nil, p, nil)
		if err != nil {
			return false
		}
		scaled := in.Clone()
		for i := range scaled.Data() {
			scaled.Data()[i] *= scale
		}
		out2, err := NewScratch().Conv2DPacked(scaled, w, nil, p, nil)
		if err != nil {
			return false
		}
		for i := range out1.Data() {
			if math.Abs(float64(out1.Data()[i]*scale-out2.Data()[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
