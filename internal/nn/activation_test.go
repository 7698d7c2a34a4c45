package nn

import (
	"math"
	"testing"
	"testing/quick"

	"tango/internal/tensor"
)

func TestReLU(t *testing.T) {
	in := mustTensor(t, []float32{-2, -0.5, 0, 0.5, 3}, 5)
	out, err := NewScratch().ReLU(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0, 0, 0.5, 3}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Errorf("out[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
	// Original untouched.
	if in.Data()[0] != -2 {
		t.Error("ReLU must not modify its input")
	}
}

func TestReLUInPlace(t *testing.T) {
	in := mustTensor(t, []float32{-1, 2, -3}, 3)
	ReLUInPlace(in)
	if in.Data()[0] != 0 || in.Data()[1] != 2 || in.Data()[2] != 0 {
		t.Errorf("ReLUInPlace result %v", in.Data())
	}
}

// TestReLUInPlaceContract pins ReLUInPlace bit for bit: a negative value
// (-Inf included) becomes +0; -0, +0, positives, +Inf and every NaN, quiet or
// signalling, either sign, pass through with their bits — what `if v < 0`
// does.  Every length 1..40 puts each special at every position modulo 8, on
// the detected rung and with the portable one forced.
func TestReLUInPlaceContract(t *testing.T) {
	specials := []uint32{
		0x80000000, 0x00000000, // -0, +0
		0x7f800000, 0xff800000, // +Inf, -Inf
		0x7fc00000, 0xffc00000, // quiet NaN, either sign
		0x7f800001, 0xff800001, // signalling NaN, either sign
		0x80000001, 0x00000001, // smallest denormals
		0xbf800000, 0x3f800000, // -1, 1
	}
	for _, rung := range []string{"detected", "portable"} {
		t.Run(rung, func(t *testing.T) {
			if rung == "portable" {
				portableRung(t)
			}
			rng := tensor.NewRNG(29)
			for n := 1; n <= 40; n++ {
				for shift := range specials {
					buf := make([]float32, n+1)
					buf[n] = -7 // one past the tensor: must stay
					want := make([]uint32, n)
					for i := range want {
						bits := specials[(i+shift)%len(specials)]
						if rng.Uint64()%3 == 0 {
							bits = math.Float32bits(rng.Float32()*2 - 1)
						}
						buf[i] = math.Float32frombits(bits)
						if want[i] = bits; buf[i] < 0 {
							want[i] = 0
						}
					}
					ReLUInPlace(mustTensor(t, buf[:n], n))
					for i, w := range want {
						if g := math.Float32bits(buf[i]); g != w {
							t.Fatalf("n=%d shift=%d: element %d = %#x, want %#x", n, shift, i, g, w)
						}
					}
					if buf[n] != -7 {
						t.Fatalf("n=%d: ReLUInPlace wrote past its tensor", n)
					}
				}
			}
		})
	}
}

func TestSigmoidKnown(t *testing.T) {
	in := mustTensor(t, []float32{0, 100, -100}, 3)
	out := Sigmoid(in)
	if math.Abs(float64(out.Data()[0])-0.5) > 1e-6 {
		t.Errorf("sigmoid(0) = %v, want 0.5", out.Data()[0])
	}
	if out.Data()[1] < 0.999 || out.Data()[2] > 0.001 {
		t.Errorf("sigmoid saturation wrong: %v", out.Data())
	}
}

func TestTanhKnown(t *testing.T) {
	in := mustTensor(t, []float32{0, 1}, 2)
	out := Tanh(in)
	if out.Data()[0] != 0 {
		t.Errorf("tanh(0) = %v, want 0", out.Data()[0])
	}
	if math.Abs(float64(out.Data()[1])-math.Tanh(1)) > 1e-6 {
		t.Errorf("tanh(1) = %v", out.Data()[1])
	}
}

func TestEltwiseAddMul(t *testing.T) {
	a := mustTensor(t, []float32{1, 2, 3}, 3)
	b := mustTensor(t, []float32{10, 20, 30}, 3)
	sum, err := EltwiseAdd(a, b)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := EltwiseMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data() {
		if sum.Data()[i] != a.Data()[i]+b.Data()[i] {
			t.Errorf("add[%d] wrong", i)
		}
		if prod.Data()[i] != a.Data()[i]*b.Data()[i] {
			t.Errorf("mul[%d] wrong", i)
		}
	}
	c := tensor.New(4)
	if _, err := EltwiseAdd(a, c); err == nil {
		t.Error("shape mismatch add should fail")
	}
	if _, err := EltwiseMul(a, c); err == nil {
		t.Error("shape mismatch mul should fail")
	}
}

// Property: ReLU output is always non-negative and idempotent.
func TestQuickReLUIdempotent(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n%64) + 1
		in := tensor.New(size)
		in.FillNormal(tensor.NewRNG(seed), 2)
		s := NewScratch()
		once, err := s.ReLU(in)
		if err != nil {
			return false
		}
		twice, err := s.ReLU(once)
		if err != nil {
			return false
		}
		if once.Min() < 0 {
			return false
		}
		return tensor.ApproxEqual(once, twice, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: sigmoid output lies in (0, 1) and is monotone.
func TestQuickSigmoidRange(t *testing.T) {
	f := func(seed uint64) bool {
		in := tensor.New(32)
		in.FillNormal(tensor.NewRNG(seed), 4)
		out := Sigmoid(in)
		for i, v := range out.Data() {
			if v < 0 || v > 1 {
				return false
			}
			// Monotonicity check against a shifted copy.
			shifted := float32(1.0 / (1.0 + math.Exp(-float64(in.Data()[i])-1)))
			if shifted < v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: EltwiseAdd is commutative.
func TestQuickEltwiseAddCommutative(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n%32) + 1
		r := tensor.NewRNG(seed)
		a := tensor.New(size)
		b := tensor.New(size)
		a.FillNormal(r, 1)
		b.FillNormal(r, 1)
		ab, err1 := EltwiseAdd(a, b)
		ba, err2 := EltwiseAdd(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return tensor.ApproxEqual(ab, ba, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcatChannels(t *testing.T) {
	a := mustTensor(t, []float32{1, 2, 3, 4}, 1, 2, 2)
	b := mustTensor(t, []float32{5, 6, 7, 8, 9, 10, 11, 12}, 2, 2, 2)
	out, err := NewScratch().ConcatChannels(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(0) != 3 || out.Dim(1) != 2 || out.Dim(2) != 2 {
		t.Fatalf("concat shape %v, want [3 2 2]", out.Shape())
	}
	if out.At(0, 0, 0) != 1 || out.At(1, 0, 0) != 5 || out.At(2, 1, 1) != 12 {
		t.Errorf("concat values wrong: %v", out.Data())
	}
}

func TestConcatChannelsErrors(t *testing.T) {
	if _, err := NewScratch().ConcatChannels(); err == nil {
		t.Error("empty concat should fail")
	}
	a := tensor.New(1, 2, 2)
	b := tensor.New(1, 3, 3)
	if _, err := NewScratch().ConcatChannels(a, b); err == nil {
		t.Error("mismatched spatial dims should fail")
	}
	if _, err := NewScratch().ConcatChannels(a, tensor.New(4)); err == nil {
		t.Error("non-CHW input should fail")
	}
}
