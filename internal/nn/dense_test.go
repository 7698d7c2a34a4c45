package nn

import (
	"math"
	"testing"
	"testing/quick"

	"tango/internal/tensor"
)

func TestFullyConnectedKnown(t *testing.T) {
	x := mustTensor(t, []float32{1, 2, 3}, 3)
	// W = [[1,0,0],[0,1,0],[1,1,1],[2,0,1]]  b = [0, 10, 0, 1]
	w := mustTensor(t, []float32{
		1, 0, 0,
		0, 1, 0,
		1, 1, 1,
		2, 0, 1,
	}, 12)
	b := mustTensor(t, []float32{0, 10, 0, 1}, 4)
	out, err := NewScratch().FullyConnectedPacked(x, w, b, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 12, 6, 6}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Errorf("out[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
}

func TestFullyConnectedFlattensInput(t *testing.T) {
	x := tensor.New(2, 2, 2)
	x.Fill(1)
	w := tensor.New(8)
	w.Fill(1)
	out, err := NewScratch().FullyConnectedPacked(x, w, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 8 {
		t.Errorf("fc over CHW input = %v, want 8", out.Data()[0])
	}
}

func TestFullyConnectedErrors(t *testing.T) {
	x := tensor.New(3)
	w := tensor.New(7)
	if _, err := NewScratch().FullyConnectedPacked(x, w, nil, 2, nil); err == nil {
		t.Error("weight size mismatch should fail")
	}
	w2 := tensor.New(6)
	bad := tensor.New(3)
	if _, err := NewScratch().FullyConnectedPacked(x, w2, bad, 2, nil); err == nil {
		t.Error("bias size mismatch should fail")
	}
	if _, err := NewScratch().FullyConnectedPacked(x, w2, nil, 0, nil); err == nil {
		t.Error("non-positive output features should fail")
	}
}

func TestMatVecKnown(t *testing.T) {
	w := mustTensor(t, []float32{1, 2, 3, 4, 5, 6}, 6)
	x := mustTensor(t, []float32{1, 1, 1}, 3)
	out, err := MatVec(w, x, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 6 || out.Data()[1] != 15 {
		t.Errorf("matvec = %v, want [6 15]", out.Data())
	}
}

func TestMatVecErrors(t *testing.T) {
	w := tensor.New(6)
	x := tensor.New(4)
	if _, err := MatVec(w, x, 2, 3); err == nil {
		t.Error("vector length mismatch should fail")
	}
	if _, err := MatVec(w, tensor.New(3), 3, 3); err == nil {
		t.Error("matrix size mismatch should fail")
	}
	if _, err := MatVec(w, tensor.New(3), 0, 3); err == nil {
		t.Error("non-positive dims should fail")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	in := mustTensor(t, []float32{1, 2, 3, 4}, 4)
	out, err := NewScratch().Softmax(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Sum()-1) > 1e-5 {
		t.Errorf("softmax must sum to 1, got %v", out.Sum())
	}
	// Monotone: larger input -> larger probability.
	for i := 1; i < out.Len(); i++ {
		if out.Data()[i] <= out.Data()[i-1] {
			t.Errorf("softmax not monotone at %d: %v", i, out.Data())
		}
	}
	if out.MaxIndex() != 3 {
		t.Errorf("softmax argmax = %d, want 3", out.MaxIndex())
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	in := mustTensor(t, []float32{1000, 1001, 1002}, 3)
	out, err := NewScratch().Softmax(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(out.Sum()) || math.IsInf(out.Sum(), 0) {
		t.Fatalf("softmax of large inputs produced %v", out.Data())
	}
	if math.Abs(out.Sum()-1) > 1e-5 {
		t.Errorf("softmax must sum to 1, got %v", out.Sum())
	}
}

// Property: softmax output always sums to 1 and is non-negative.
func TestQuickSoftmaxDistribution(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n%32) + 1
		in := tensor.New(size)
		in.FillNormal(tensor.NewRNG(seed), 5)
		out, err := NewScratch().Softmax(in)
		if err != nil {
			return false
		}
		if out.Min() < 0 {
			return false
		}
		return math.Abs(out.Sum()-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: FullyConnected with an identity weight matrix reproduces its
// input.
func TestQuickFCIdentity(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n%16) + 1
		x := tensor.New(size)
		x.FillNormal(tensor.NewRNG(seed), 1)
		w := tensor.New(size * size)
		for i := 0; i < size; i++ {
			w.Data()[i*size+i] = 1
		}
		out, err := NewScratch().FullyConnectedPacked(x, w, nil, size, nil)
		if err != nil {
			return false
		}
		return tensor.ApproxEqual(x, out, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
