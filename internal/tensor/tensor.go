// Package tensor provides the dense float32 tensors used by the Tango layer
// kernels.  Tensors are stored in row-major (C) order; convolutional feature
// maps use CHW layout for one image, matching the single-image inference the
// paper's benchmark suite performs, and NCHW for a batch.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// Tensor is a dense float32 array with an explicit shape.
type Tensor struct {
	shape []int
	data  []float32
}

// ErrShape is returned when tensor shapes are incompatible for an operation.
var ErrShape = errors.New("tensor: incompatible shapes")

// New allocates a zero-filled tensor with the given shape.  It panics if any
// dimension is non-positive; shape errors at construction time are programmer
// errors, not runtime conditions.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: invalid dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}
}

// FromSlice wraps an existing data slice with a shape.  The slice is not
// copied.  An error is returned if the element count does not match.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("%w: invalid dimension %d", ErrShape, d)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: shape %v needs %d elements, slice has %d", ErrShape, shape, n, len(data))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}, nil
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage.  Mutating the returned slice mutates
// the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Bytes returns the storage footprint in bytes (4 bytes per element).
func (t *Tensor) Bytes() int64 { return int64(len(t.data)) * 4 }

// index converts multi-dimensional indices to a flat offset.
func (t *Tensor) index(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", x, i, t.shape[i]))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.index(idx...)] }

// Set assigns the element at the given indices.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.index(idx...)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero resets every element to zero.
func (t *Tensor) Zero() { t.Fill(0) }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's storage with a new shape.  The new
// shape must describe the same number of elements.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("%w: invalid dimension %d", ErrShape, d)
		}
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("%w: cannot reshape %v to %v", ErrShape, t.shape, shape)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}, nil
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// MaxIndex returns the index of the largest element, breaking ties toward the
// lowest index.  It is used to extract the predicted class of a classifier.
func (t *Tensor) MaxIndex() int {
	best := 0
	bestV := float32(math.Inf(-1))
	for i, v := range t.data {
		if v > bestV {
			bestV = v
			best = i
		}
	}
	return best
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Max returns the largest element value.
func (t *Tensor) Max() float32 {
	m := float32(math.Inf(-1))
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest element value.
func (t *Tensor) Min() float32 {
	m := float32(math.Inf(1))
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// AbsDiff returns the maximum absolute element-wise difference between a and
// b.  It returns an error when shapes differ.
func AbsDiff(a, b *Tensor) (float64, error) {
	if !SameShape(a, b) {
		return 0, fmt.Errorf("%w: %v vs %v", ErrShape, a.shape, b.shape)
	}
	maxd := 0.0
	for i := range a.data {
		d := math.Abs(float64(a.data[i]) - float64(b.data[i]))
		if d > maxd {
			maxd = d
		}
	}
	return maxd, nil
}

// ApproxEqual reports whether a and b have the same shape and all elements
// differ by at most tol.
func ApproxEqual(a, b *Tensor, tol float64) bool {
	d, err := AbsDiff(a, b)
	if err != nil {
		return false
	}
	return d <= tol
}

// String summarizes the tensor for debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(%d elements)", t.shape, len(t.data))
}

// RNG is a small deterministic pseudo-random generator (SplitMix64) used to
// synthesize reproducible weights and inputs without math/rand, so that the
// benchmark inputs are bit-identical across platforms and runs.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float32 returns a value uniformly distributed in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(float32(r.Uint64()>>40) / float32(1<<24))
}

// Normal32 returns an approximately normally distributed value with mean 0
// and the given standard deviation, using the sum of uniforms (Irwin-Hall).
func (r *RNG) Normal32(stddev float32) float32 {
	s := float32(0)
	for i := 0; i < 12; i++ {
		s += r.Float32()
	}
	return (s - 6) * stddev
}

// FillUniform fills t with uniform values in [lo, hi).
func (t *Tensor) FillUniform(r *RNG, lo, hi float32) {
	for i := range t.data {
		t.data[i] = lo + float32((hi-lo)*r.Float32())
	}
}

// FillNormal fills t with normal values of the given standard deviation.
func (t *Tensor) FillNormal(r *RNG, stddev float32) {
	for i := range t.data {
		t.data[i] = r.Normal32(stddev)
	}
}
