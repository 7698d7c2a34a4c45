package tensor

// This file implements the reference-tier GEMM behind every convolution
// (single-sample and batched) and the batched fully-connected and recurrent
// layers: dst = A*B + bias where B is stored row-major (k x n), unlike Gemm
// whose second operand is the transposed bt (n x k).  The row-major ("NN")
// layout puts every output column of one depth step contiguously in memory,
// which is what lets the amd64 microkernels vectorize ACROSS output
// elements: eight neighbouring columns advance their accumulators in one
// vector multiply + one vector add per depth step.
//
// Two rungs share one blocking and one bit pattern (see gemmNNPanel): the
// AVX2 microkernels, and a portable rung for pre-AVX2 amd64 and every other
// architecture.
//
// Determinism contract (identical to Gemm): every element dst[i*n+j] is
//
//	bias[i] + a[i][0]*b[0][j] + a[i][1]*b[1][j] + ... + a[i][k-1]*b[k-1][j]
//
// accumulated left to right in float32 with a single accumulator.  The
// vector kernel keeps one accumulator lane per element and uses separate
// IEEE-754 single-precision multiply and add instructions (never a fused
// multiply-add), so each lane performs exactly the scalar operation sequence
// and the result is bit-identical to the scalar reference for any blocking,
// any SIMD width and any worker count.  dst rows start at the bias value
// (zero for nil bias) and partial sums persist in dst between depth panels;
// float32 stores/loads are exact, so the round trip does not perturb the
// accumulation.

const (
	// nnKC is the depth panel: b rows touched per pass.
	nnKC = 256
	// nnNC is the column panel: with nnKC it bounds the L2-resident b block
	// (nnKC x nnNC floats = 512 KiB) that every row tile streams.
	nnNC = 512
	// nnMR is the row tile of the amd64 microkernel; row-panel splits align
	// to it so only the final panel runs remainder rows.
	nnMR = 4
	// nnNR is the column tile of the amd64 microkernel (one 8-float vector).
	nnNR = 8
)

// GemmNN computes dst = A*B + bias on row-major float32 buffers: A is m x k,
// b is k x n (row-major, NOT transposed) and dst is m x n.  bias has one
// element per output row and may be nil for zero.  dst is fully overwritten.
//
// ldb is the row stride of b and dst in floats; it must be >= n.  Staging
// buffers padded to a multiple of 8 columns keep the whole problem on the
// vector kernel.  Results are bit-identical to Gemm and to the scalar
// reference loops for any stride, blocking or worker count.
func GemmNN(dst, a, b, bias []float32, m, n, k, ldb int) {
	checkGemmNNArgs(dst, a, b, bias, m, n, k, ldb)
	gemmNNRows(dst, a, b, bias, n, k, ldb, 0, m)
}

// GemmNNParallel is GemmNN with the row dimension split into contiguous
// panels executed on up to workers goroutines.  Each output element is
// produced by exactly one worker with the serial summation order, so the
// result is bit-identical to GemmNN for any worker count.
func GemmNNParallel(dst, a, b, bias []float32, m, n, k, ldb, workers int) {
	checkGemmNNArgs(dst, a, b, bias, m, n, k, ldb)
	// Keep the closure out of the serial path: constructing it escapes into
	// par.ForEach and would break the engine's zero-alloc steady state.
	if serialRows(m, int64(m)*int64(n)*int64(k), workers) {
		gemmNNRows(dst, a, b, bias, n, k, ldb, 0, m)
		return
	}
	forEachRowPanel(m, workers, gemmMR, func(r0, r1 int) {
		gemmNNRows(dst, a, b, bias, n, k, ldb, r0, r1)
	})
}

func checkGemmNNArgs(dst, a, b, bias []float32, m, n, k, ldb int) {
	if m <= 0 || n <= 0 || k <= 0 {
		panic("tensor: gemmNN dims must be positive")
	}
	if ldb < n {
		panic("tensor: gemmNN stride smaller than column count")
	}
	if len(dst) < (m-1)*ldb+n || len(a) < m*k || len(b) < (k-1)*ldb+n {
		panic("tensor: gemmNN buffers too small")
	}
	if bias != nil && len(bias) < m {
		panic("tensor: gemmNN bias too short")
	}
}

// gemmNNRows runs the blocked kernel over output rows [r0, r1).  Rows are
// first seeded with their bias, then depth panels accumulate in ascending
// order; inside a panel, column panels bound the L2-resident b block.
func gemmNNRows(dst, a, b, bias []float32, n, k, ldb, r0, r1 int) {
	for i := r0; i < r1; i++ {
		var bi float32
		if bias != nil {
			bi = bias[i]
		}
		row := dst[i*ldb : i*ldb+n]
		for j := range row {
			row[j] = bi
		}
	}
	for kb := 0; kb < k; kb += nnKC {
		kc := k - kb
		if kc > nnKC {
			kc = nnKC
		}
		for jb := 0; jb < n; jb += nnNC {
			nc := n - jb
			if nc > nnNC {
				nc = nnNC
			}
			gemmNNPanel(dst, a, b, k, ldb, kb, kc, jb, nc, r0, r1)
		}
	}
}

// gemmNNVector selects the vector rung; it only selects speed, and only
// ForcePortableGemmNN (tests) mutates it.
var gemmNNVector = gemmNNVectorDetected

// ForcePortableGemmNN switches GemmNN onto the portable rung and returns the
// function that restores the detected one: t.Cleanup(ForcePortableGemmNN())
// runs a bitwise suite on the kernel non-AVX2 and non-amd64 builds execute.
// Tests only, and not in parallel with other GemmNN users.
func ForcePortableGemmNN() (restore func()) {
	gemmNNVector = false
	return func() { gemmNNVector = gemmNNVectorDetected }
}

// gemmNNPanel accumulates the (kb..kb+kc) depth slab over columns
// [jb, jb+nc) for rows [r0, r1).  On the vector rung full 8-column blocks go
// to the 4x8 microkernel (1x8 for the m%4 remainder rows) and the <8-column
// tail to the strided dot; the portable rung runs the axpy kernel over wide
// column ranges and the strided dot over narrow ones.
func gemmNNPanel(dst, a, b []float32, k, ldb, kb, kc, jb, nc, r0, r1 int) {
	if !gemmNNVector {
		if nc >= nnNR {
			gemmNNAxpy(dst, a, b, k, ldb, kb, kc, jb, nc, r0, r1)
		} else {
			gemmNNDot(dst, a, b, k, ldb, kb, kc, jb, nc, r0, r1)
		}
		return
	}
	ncVec := nc &^ (nnNR - 1)
	if ncVec > 0 {
		i := r0
		for ; i+nnMR <= r1; i += nnMR {
			gemmNNKernel(dst[i*ldb+jb:], a[i*k+kb:], b[kb*ldb+jb:], kc, ncVec, ldb, k)
		}
		for ; i < r1; i++ {
			gemmNNKernel1(dst[i*ldb+jb:], a[i*k+kb:], b[kb*ldb+jb:], kc, ncVec, ldb)
		}
	}
	if ncVec < nc {
		gemmNNDot(dst, a, b, k, ldb, kb, kc, jb+ncVec, nc-ncVec, r0, r1)
	}
}

// gemmNNAxpy is the portable kernel for wide column ranges: every b row of
// the slab streams contiguously into four dst rows at a time (dst[i][j] +=
// a[i][l]*b[l][j] for l ascending), so no access is strided.  Each element
// still owns one accumulator, its dst slot, updated in depth order: the
// reference summation order, bit for bit.
func gemmNNAxpy(dst, a, b []float32, k, ldb, kb, kc, jb, nc, r0, r1 int) {
	i := r0
	for ; i+gemmMR <= r1; i += gemmMR {
		a0 := a[i*k+kb : i*k+kb+kc]
		a1 := a[(i+1)*k+kb : (i+1)*k+kb+kc]
		a2 := a[(i+2)*k+kb : (i+2)*k+kb+kc]
		a3 := a[(i+3)*k+kb : (i+3)*k+kb+kc]
		d0 := dst[i*ldb+jb : i*ldb+jb+nc]
		d1 := dst[(i+1)*ldb+jb : (i+1)*ldb+jb+nc]
		d2 := dst[(i+2)*ldb+jb : (i+2)*ldb+jb+nc]
		d3 := dst[(i+3)*ldb+jb : (i+3)*ldb+jb+nc]
		for l := 0; l < kc; l++ {
			br := b[(kb+l)*ldb+jb : (kb+l)*ldb+jb+nc]
			d0, d1, d2, d3 := d0[:len(br)], d1[:len(br)], d2[:len(br)], d3[:len(br)]
			av0, av1, av2, av3 := a0[l], a1[l], a2[l], a3[l]
			for j, bv := range br {
				d0[j] += av0 * bv
				d1[j] += av1 * bv
				d2[j] += av2 * bv
				d3[j] += av3 * bv
			}
		}
	}
	for ; i < r1; i++ {
		ar := a[i*k+kb : i*k+kb+kc]
		d := dst[i*ldb+jb : i*ldb+jb+nc]
		for l, av := range ar {
			br := b[(kb+l)*ldb+jb : (kb+l)*ldb+jb+nc]
			d := d[:len(br)]
			for j, bv := range br {
				d[j] += av * bv
			}
		}
	}
}

// gemmNNDot is the kernel for column ranges narrower than one vector: one
// dot product per output element over the strided b column, with four rows
// sharing each streamed b value (the matVecRows tiling).  It is still no
// mat-vec: at n = 1 on AlexNet fc6 (4096 x 9216, one worker, 2.1 GHz Xeon)
// GemmNN takes about twice as long as MatVecBias (30-49 ms against 18-26 ms
// across quiet and loaded runs), which is why a one-sample fully-connected
// layer runs the mat-vec.  Element (i, j)
// accumulates a[i][l]*b[l][j] for l ascending onto the bias-seeded partial
// sum resident in dst — the reference summation order.
func gemmNNDot(dst, a, b []float32, k, ldb, kb, kc, jb, nc, r0, r1 int) {
	i := r0
	for ; i+gemmMR <= r1; i += gemmMR {
		a0 := a[i*k+kb : i*k+kb+kc]
		a1 := a[(i+1)*k+kb : (i+1)*k+kb+kc]
		a2 := a[(i+2)*k+kb : (i+2)*k+kb+kc]
		a3 := a[(i+3)*k+kb : (i+3)*k+kb+kc]
		for j := jb; j < jb+nc; j++ {
			s0 := dst[i*ldb+j]
			s1 := dst[(i+1)*ldb+j]
			s2 := dst[(i+2)*ldb+j]
			s3 := dst[(i+3)*ldb+j]
			bi := kb*ldb + j
			for l := 0; l < kc; l++ {
				bv := b[bi]
				s0 += a0[l] * bv
				s1 += a1[l] * bv
				s2 += a2[l] * bv
				s3 += a3[l] * bv
				bi += ldb
			}
			dst[i*ldb+j] = s0
			dst[(i+1)*ldb+j] = s1
			dst[(i+2)*ldb+j] = s2
			dst[(i+3)*ldb+j] = s3
		}
	}
	for ; i < r1; i++ {
		ar := a[i*k+kb : i*k+kb+kc]
		for j := jb; j < jb+nc; j++ {
			s := dst[i*ldb+j]
			bi := kb*ldb + j
			for _, av := range ar {
				s += av * b[bi]
				bi += ldb
			}
			dst[i*ldb+j] = s
		}
	}
}
