package tensor

// This file implements the reference-tier GEMM behind every convolution and
// the batched fully-connected and recurrent layers: dst = A*B + bias where B
// is stored row-major (k x n), unlike Gemm whose second operand is the
// transposed bt (n x k).  The row-major ("NN") layout puts every output
// column of one depth step contiguously in memory, which is what lets the
// amd64 microkernels vectorize ACROSS output elements: eight (YMM) or
// sixteen (ZMM) neighbouring columns advance their accumulators in one
// vector multiply + one vector add per depth step.  A convolution feeds it
// one packed patch panel at a time (GemmNNAccumPanel), a 1x1 one its input
// planes in place (GemmNN).
//
// The kernels follow the one SIMD ladder the fast and int8 tiers climb
// (SIMDTier): TierAVX512 runs a 4x32 ZMM tile, TierFMA a 4x8 AVX2 tile, and
// TierGeneric portable loops, which are all that hosts without AVX2 and FMA
// and other architectures run.  Every rung shares one blocking and one bit
// pattern (see gemmNNPanel and nnColumns).
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
	// nnNR is the column tile of the AVX2 microkernel (one 8-float vector).
	nnNR = 8
	// nnNRZ is the column tile of the AVX-512 microkernel (two ZMM vectors).
	nnNRZ = 32
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
// panels across t's workers.  Each output element is produced by exactly
// one worker with the serial summation order, so the result is
// bit-identical to GemmNN for any worker count.
func GemmNNParallel(dst, a, b, bias []float32, m, n, k, ldb int, t *Team) {
	checkGemmNNArgs(dst, a, b, bias, m, n, k, ldb)
	if !t.forks(m, int64(m)*int64(n)*int64(k)) {
		gemmNNRows(dst, a, b, bias, n, k, ldb, 0, m)
		return
	}
	t.rows = rowJob{kernel: gemmNNPart, m: m, dst: dst, a: a, b: b, bias: bias, n: n, k: k, ldb: ldb}
	t.forRows(gemmMR)
}

func gemmNNPart(j *rowJob, r0, r1 int) { gemmNNRows(j.dst, j.a, j.b, j.bias, j.n, j.k, j.ldb, r0, r1) }

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

// GemmNNAccumPanel is the reference tier's panel kernel, the bit-exact
// counterpart of GemmNNFastAccumPanel on the same FusedKC x FusedNC grid.
// It accumulates one compact kc x nc B panel (depth rows [kb, kb+kc) of B,
// row stride nc) into rows [r0, r1) of a strided output block: dst[i*ldd +
// j] += sum_l a[i*k+kb+l] * panel[l*nc + j] for j in [0, nc), after seeding
// the touched columns with bias (zero for nil) when kb == 0.  Walking kb
// over ascending slabs gives every element GemmNN's summation order, so the
// product is bit-identical to GemmNN for any panel grid and any split of
// the rows.
func GemmNNAccumPanel(dst, a, panel, bias []float32, k, kb, kc, nc, ldd, r0, r1 int) {
	if r0 < 0 || r1 <= r0 || nc <= 0 || kc <= 0 || kb < 0 || kb+kc > k {
		panic("tensor: gemmNN panel slab out of range")
	}
	if ldd < nc || len(dst) < (r1-1)*ldd+nc || len(a) < r1*k || len(panel) < kc*nc {
		panic("tensor: gemmNN panel buffers too small")
	}
	if bias != nil && len(bias) < r1 {
		panic("tensor: gemmNN panel bias too short")
	}
	if kb == 0 {
		seedRows(dst, bias, nc, ldd, r0, r1)
	}
	gemmNNPanel(dst, a, panel, k, ldd, nc, kb, kc, 0, nc, r0, r1)
}

// seedRows sets columns [0, n) of dst rows [r0, r1), ldd floats apart, to
// their bias (zero for nil bias): every GEMM's starting partial sum.
func seedRows(dst, bias []float32, n, ldd, r0, r1 int) {
	for i := r0; i < r1; i++ {
		var bi float32
		if bias != nil {
			bi = bias[i]
		}
		row := dst[i*ldd : i*ldd+n]
		for j := range row {
			row[j] = bi
		}
	}
}

// gemmNNRows runs the blocked kernel over output rows [r0, r1).  Rows are
// first seeded with their bias, then depth panels accumulate in ascending
// order; inside a panel, column panels bound the L2-resident b block.
func gemmNNRows(dst, a, b, bias []float32, n, k, ldb, r0, r1 int) {
	seedRows(dst, bias, n, ldb, r0, r1)
	for kb := 0; kb < k; kb += nnKC {
		kc := min(k-kb, nnKC)
		for jb := 0; jb < n; jb += nnNC {
			gemmNNPanel(dst, a, b[kb*ldb:], k, ldb, ldb, kb, kc, jb, min(n-jb, nnNC), r0, r1)
		}
	}
}

// nnColumns splits the nc columns of one panel among tier t's kernels: the
// first zmm go to the 4x32 ZMM tile, the next ymm to the 4x8 AVX2 tile and
// the rest to the portable kernels.  On the vector rungs the rest is narrower
// than one vector; on the generic rung it is every column.
func nnColumns(t SIMDTier, nc int) (zmm, ymm int) {
	switch t {
	case TierGeneric:
		return 0, 0
	case TierAVX512:
		zmm = nc &^ (nnNRZ - 1)
	}
	return zmm, (nc - zmm) &^ (nnNR - 1)
}

// gemmNNPanel accumulates the (kb..kb+kc) depth slab over columns
// [jb, jb+nc) for rows [r0, r1); b starts at the slab's first depth row,
// with rows ldb floats apart, and dst rows are ldd floats apart.  The vector
// columns of nnColumns run the 4-row tiles (the 1x8 kernel for the m%4
// remainder rows); the rest runs the axpy kernel when it spans a vector and
// the strided dot otherwise.
func gemmNNPanel(dst, a, b []float32, k, ldd, ldb, kb, kc, jb, nc, r0, r1 int) {
	zmm, ymm := nnColumns(fastTier, nc)
	if vec := zmm + ymm; vec > 0 {
		i := r0
		for ; i+nnMR <= r1; i += nnMR {
			d, ai := dst[i*ldd+jb:], a[i*k+kb:]
			if zmm > 0 {
				gemmNNKernel32(d, ai, b[jb:], kc, zmm, ldd, ldb, k)
			}
			if ymm > 0 {
				gemmNNKernel(d[zmm:], ai, b[jb+zmm:], kc, ymm, ldd, ldb, k)
			}
		}
		for ; i < r1; i++ {
			gemmNNKernel1(dst[i*ldd+jb:], a[i*k+kb:], b[jb:], kc, vec, ldb)
		}
		jb, nc = jb+vec, nc-vec
	}
	if nc >= nnNR {
		gemmNNAxpy(dst, a, b, k, ldd, ldb, kb, kc, jb, nc, r0, r1)
	} else if nc > 0 {
		gemmNNDot(dst, a, b, k, ldd, ldb, kb, kc, jb, nc, r0, r1)
	}
}

// gemmNNAxpy is the portable kernel for wide column ranges: every b row of
// the slab streams contiguously into four dst rows at a time (dst[i][j] +=
// a[i][l]*b[l][j] for l ascending), so no access is strided.  Each element
// still owns one accumulator, its dst slot, updated in depth order: the
// reference summation order, bit for bit.
func gemmNNAxpy(dst, a, b []float32, k, ldd, ldb, kb, kc, jb, nc, r0, r1 int) {
	i := r0
	for ; i+gemmMR <= r1; i += gemmMR {
		a0 := a[i*k+kb : i*k+kb+kc]
		a1 := a[(i+1)*k+kb : (i+1)*k+kb+kc]
		a2 := a[(i+2)*k+kb : (i+2)*k+kb+kc]
		a3 := a[(i+3)*k+kb : (i+3)*k+kb+kc]
		d0 := dst[i*ldd+jb : i*ldd+jb+nc]
		d1 := dst[(i+1)*ldd+jb : (i+1)*ldd+jb+nc]
		d2 := dst[(i+2)*ldd+jb : (i+2)*ldd+jb+nc]
		d3 := dst[(i+3)*ldd+jb : (i+3)*ldd+jb+nc]
		for l := 0; l < kc; l++ {
			br := b[l*ldb+jb : l*ldb+jb+nc]
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
		d := dst[i*ldd+jb : i*ldd+jb+nc]
		for l, av := range ar {
			br := b[l*ldb+jb : l*ldb+jb+nc]
			d := d[:len(br)]
			for j, bv := range br {
				d[j] += av * bv
			}
		}
	}
}

// gemmNNDot is the kernel for column ranges narrower than one vector, on
// both tiers (the fast tier's remainder rows, narrow tails and generic rung
// run it on the row-major weights): one dot product per output element over
// the strided b column, b pre-offset to the slab's first depth row, with
// four rows sharing each streamed b value (the matVecRows tiling).  It is
// still no mat-vec: at n = 1 on AlexNet fc6 GemmNN takes about twice as long
// as MatVecBias, so a one-sample fully-connected layer runs the mat-vec.
// Element (i, j) accumulates a[i][kb+l]*b[l][j] for l ascending onto the
// bias-seeded partial sum resident in dst — the reference summation order.
func gemmNNDot(dst, a, b []float32, k, ldd, ldb, kb, kc, jb, nc, r0, r1 int) {
	i := r0
	for ; i+gemmMR <= r1; i += gemmMR {
		a0 := a[i*k+kb : i*k+kb+kc]
		a1 := a[(i+1)*k+kb : (i+1)*k+kb+kc]
		a2 := a[(i+2)*k+kb : (i+2)*k+kb+kc]
		a3 := a[(i+3)*k+kb : (i+3)*k+kb+kc]
		for j := jb; j < jb+nc; j++ {
			s0 := dst[i*ldd+j]
			s1 := dst[(i+1)*ldd+j]
			s2 := dst[(i+2)*ldd+j]
			s3 := dst[(i+3)*ldd+j]
			bi := j
			for l := 0; l < kc; l++ {
				bv := b[bi]
				s0 += a0[l] * bv
				s1 += a1[l] * bv
				s2 += a2[l] * bv
				s3 += a3[l] * bv
				bi += ldb
			}
			dst[i*ldd+j] = s0
			dst[(i+1)*ldd+j] = s1
			dst[(i+2)*ldd+j] = s2
			dst[(i+3)*ldd+j] = s3
		}
	}
	for ; i < r1; i++ {
		ar := a[i*k+kb : i*k+kb+kc]
		for j := jb; j < jb+nc; j++ {
			s := dst[i*ldd+j]
			bi := j
			for _, av := range ar {
				s += av * b[bi]
				bi += ldb
			}
			dst[i*ldd+j] = s
		}
	}
}
