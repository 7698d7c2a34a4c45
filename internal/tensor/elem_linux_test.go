package tensor

import (
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// TestStride2KernelsStayInBounds runs the elementwise kernels on sources
// whose last element is the last float32 of a mapped page that a PROT_NONE
// page follows: a kernel that loads one byte past its slice faults here
// instead of passing.  Every len(acc) 1..40, and both lengths a stride-2
// source can have (2n-1: the row ends on a tap; 2n: one column more).
func TestStride2KernelsStayInBounds(t *testing.T) {
	floats := guardedOf[float32](t, syscall.Getpagesize()/4, nil)
	elemFill(NewRNG(37), floats)
	for _, rung := range []string{"detected", "portable"} {
		if rung == "portable" {
			t.Cleanup(portable())
		}
		for n := 1; n <= 40; n++ {
			acc := make([]float32, n)
			for _, srcLen := range []int{2*n - 1, 2 * n} {
				src := floats[len(floats)-srcLen:]
				MaxStride(acc, src, 2)
				AddStride(acc, src, 2)
			}
			ReLU(acc, floats[len(floats)-n:])
		}
	}
}

// guarded returns n bytes that end on the last mapped byte of a page, with a
// PROT_NONE page behind them.
func guarded(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return mem[size-page-n : size-page : size-page]
}

// guardedOf is guarded as n elements of T, filled from src when given.
func guardedOf[T any](t *testing.T, n int, src []T) []T {
	var zero T
	out := unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(guarded(t, n*int(unsafe.Sizeof(zero)))))), n)
	copy(out, src)
	return out
}

// TestInt8KernelsStayInBounds runs the int8 product on every rung with the
// last byte of the packed activations, the weight rows, the acc staging rows
// and the output each on the last mapped byte of a page, for shapes with a
// ragged last column tile, remainder rows and a ragged quantizer half tile:
// a kernel that reads or writes past a buffer faults.  The bits must be the
// heap run's.
func TestInt8KernelsStayInBounds(t *testing.T) {
	r := NewRNG(41)
	for _, g := range [][3]int{{8, 17, 33}, {16, 16, 64}, {11, 41, 5}, {24, 9, 100}} {
		m, n, k := g[0], g[1], g[2]
		a, b, bias := make([]float32, m*k), make([]float32, k*n), make([]float32, m)
		fillRand(r, a)
		fillRand(r, b)
		fillRand(r, bias)
		forRungs(TierGeneric, func() {
			heap := PackInt8(a, m, k)
			pw := *heap
			pw.wq = guardedOf(t, len(heap.wq), heap.wq)
			bpHeap := make([]uint8, Int8PackedLen(pw.kPad, n))
			xScale := PackColsU8(bpHeap, b, k, n, n, pw.kPad)
			want := make([]float32, m*n)
			GemmInt8Panel(want, heap, bpHeap, make([]int32, Int8AccLen(m, n)), bias, xScale, n, n)

			bp := guardedOf[uint8](t, len(bpHeap), nil)
			if s := PackColsU8(bp, guardedOf(t, len(b), b), k, n, n, pw.kPad); s != xScale {
				t.Fatalf("%v rung: scale %v from guarded source, %v from heap", FastTier(), s, xScale)
			}
			got := guardedOf[float32](t, m*n, nil)
			GemmInt8Panel(got, &pw, bp, guardedOf[int32](t, Int8AccLen(m, n), nil), bias, xScale, n, n)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%v rung m=%d n=%d k=%d: [%d] = %v, heap run %v", FastTier(), m, n, k, i, got[i], want[i])
				}
			}
		})
	}
}

// TestLRNStepStaysInBounds: LRNStep75 with every slice ending on the last
// mapped byte of a page, every length 1..40, on every rung.
func TestLRNStepStaysInBounds(t *testing.T) {
	r := NewRNG(43)
	forRungs(TierGeneric, func() {
		for n := 1; n <= 40; n++ {
			src, add, sub := guardedOf[float32](t, n, nil), guardedOf[float32](t, n, nil), guardedOf[float32](t, n, nil)
			fillRand(r, src)
			fillRand(r, add)
			fillRand(r, sub)
			LRNStep75(guardedOf[float32](t, n, nil), src, guardedOf[float64](t, n, nil), add, sub, 2, 2e-5)
		}
	})
}

// TestQuantizePlaneStaysInBounds: QuantizePlaneU8 with its source planes and
// its destination each ending on the last mapped byte of a page, for one and
// four lanes, 1-2 rows of 1..20 pixels (ragged row ends redo their last eight
// pixels), on every rung; the bytes must be the heap run's.
func TestQuantizePlaneStaysInBounds(t *testing.T) {
	r := NewRNG(47)
	for _, lanes := range []int{1, 4} {
		for rows := 1; rows <= 2; rows++ {
			for cols := 1; cols <= 20; cols++ {
				ldd, planeStride := cols*lanes+3, rows*cols
				src := make([]float32, (lanes-1)*planeStride+rows*cols)
				fillRand(r, src)
				inv := 127 / MaxAbs(src)
				want := make([]uint8, (rows-1)*ldd+cols*lanes)
				SetFastTier(TierGeneric)
				QuantizePlaneU8(want, src, lanes, rows, cols, planeStride, ldd, inv)
				forRungs(TierGeneric, func() {
					got := guardedOf[uint8](t, len(want), nil)
					QuantizePlaneU8(got, guardedOf(t, len(src), src), lanes, rows, cols, planeStride, ldd, inv)
					for i := range want {
						if y, x := i/ldd, i%ldd; y < rows && x < cols*lanes && got[i] != want[i] {
							t.Fatalf("%v rung lanes=%d %dx%d: byte %d = %#x, heap run %#x", FastTier(), lanes, rows, cols, i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}
