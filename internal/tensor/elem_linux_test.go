package tensor

import (
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
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	floats := unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), page/4)
	elemFill(NewRNG(37), floats)
	for _, rung := range []string{"detected", "portable"} {
		if rung == "portable" {
			t.Cleanup(ForcePortableGemmNN())
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
