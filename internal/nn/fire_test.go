package nn

import (
	"testing"

	"tango/internal/tensor"
)

func TestConcatChannels(t *testing.T) {
	a := mustTensor(t, []float32{1, 2, 3, 4}, 1, 2, 2)
	b := mustTensor(t, []float32{5, 6, 7, 8, 9, 10, 11, 12}, 2, 2, 2)
	out, err := ConcatChannels(a, b)
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
	if _, err := ConcatChannels(); err == nil {
		t.Error("empty concat should fail")
	}
	a := tensor.New(1, 2, 2)
	b := tensor.New(1, 3, 3)
	if _, err := ConcatChannels(a, b); err == nil {
		t.Error("mismatched spatial dims should fail")
	}
	if _, err := ConcatChannels(a, tensor.New(4)); err == nil {
		t.Error("non-CHW input should fail")
	}
}
