//go:build !amd64

package tensor

// Non-amd64 builds run the portable int8 loops, which produce the same
// bytes and int32 accumulations as the vector kernels bit for bit; the
// stubs below are unreachable behind int8Vector.

func int8Vector() bool { return false }

func gemmInt8Kernel(acc []int32, w []int8, bp []uint8, kc4, nc, ldw int) {
	panic("tensor: int8 kernel called on non-amd64 build")
}

func dotInt8Kernel(w []int8, x []uint8, n int) int32 {
	panic("tensor: int8 dot kernel called on non-amd64 build")
}

func quantTilesU8AVX2(dst []uint8, src []float32, kc4, halves, lds, kPad int, inv float32) {
	panic("tensor: int8 quantize kernel called on non-amd64 build")
}

func quantU8AVX2(dst []uint8, src []float32, n int, inv float32) {
	panic("tensor: int8 quantize kernel called on non-amd64 build")
}

func dequantRowAVX2(dst []float32, acc []int32, c int32, f, b0 float32) {
	panic("tensor: int8 dequantize kernel called on non-amd64 build")
}

func maxAbsAVX2(src []float32, n int) float32 {
	panic("tensor: int8 max-abs kernel called on non-amd64 build")
}

func quantRowS8AVX2(dst []int8, src []float32, n int, inv float32) int32 {
	panic("tensor: int8 weight quantize kernel called on non-amd64 build")
}
