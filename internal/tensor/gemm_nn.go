package tensor

// This file implements the float GEMM of both numerics tiers, behind every
// convolution and the batched fully-connected and recurrent layers: dst =
// A*B + bias where B is stored row-major (k x n), unlike Gemm whose second
// operand is the transposed bt (n x k).  The row-major ("NN") layout puts
// every output column of one depth step contiguously in memory, which is
// what lets the amd64 tiles vectorize ACROSS output elements: sixteen (two
// YMM) or thirty-two (two ZMM) neighbouring columns of each of four rows
// advance their accumulators in one step per depth row.  A convolution
// feeds it one packed patch panel at a time (GemmNNAccumPanel,
// GemmNNFastAccumPanel), a 1x1 one its input planes in place.
//
// Both tiers share one tile family, one column split (nnOp.columns) and one
// panel driver (gemmNNPanel), on the one SIMD ladder (SIMDTier): TierAVX512
// runs the 4x32 ZMM tile, TierFMA the 4x16 YMM tile (which also takes the
// AVX-512 rung's 16-column remainder), and TierGeneric portable loops, which
// are all that hosts without AVX2 and FMA and other architectures run.  The
// tiers differ only in the accumulate instruction and in what they do with
// the columns and rows the tiles leave (gemmNNPanel).
//
// Reference determinism contract (identical to Gemm): every element
// dst[i*n+j] is
//
//	bias[i] + a[i][0]*b[0][j] + a[i][1]*b[1][j] + ... + a[i][k-1]*b[k-1][j]
//
// accumulated left to right in float32 with a single accumulator.  The
// reference tiles keep one accumulator lane per element and use separate
// IEEE-754 single-precision multiply and add instructions (never a fused
// multiply-add), so each lane performs exactly the scalar operation sequence
// and the result is bit-identical to the scalar reference for any blocking,
// any SIMD width, any kernel and any worker count.  dst rows start at the
// bias value (zero for nil bias) and partial sums persist in dst between
// depth panels; float32 stores/loads are exact, so the round trip does not
// perturb the accumulation.

const (
	// nnKC is the depth panel: b rows touched per pass.
	nnKC = 256
	// nnNC is the column panel: with nnKC it bounds the L2-resident b block
	// (nnKC x nnNC floats = 512 KiB) that every row tile streams.
	nnNC = 512
	// nnMR is the row tile of the amd64 tiles; row-panel splits align to it
	// so only the final panel runs remainder rows.
	nnMR = 4
	// nnNR is the YMM tile's width; the column tail narrower than it takes
	// the spill tile or the portable loops.
	nnNR = 16
)

// GemmNN computes dst = A*B + bias on row-major float32 buffers: A is m x k,
// b is k x n (row-major, NOT transposed) and dst is m x n.  bias has one
// element per output row and may be nil for zero.  dst is fully overwritten.
//
// ldb is the row stride of b and dst in floats; it must be >= n.  Results
// are bit-identical to Gemm and to the scalar reference loops for any
// stride, blocking or worker count.
func GemmNN(dst, a, b, bias []float32, m, n, k, ldb int) {
	GemmNNParallel(dst, a, b, bias, m, n, k, ldb, nil)
}

// GemmNNParallel is GemmNN with the row dimension split into contiguous
// panels across t's workers.  Each output element is produced by exactly
// one worker with the serial summation order, so the result is
// bit-identical to GemmNN for any worker count.
func GemmNNParallel(dst, a, b, bias []float32, m, n, k, ldb int, t *Team) {
	checkGemmNNArgs(dst, a, b, bias, m, n, k, ldb)
	gemmNN(nnOp{a: a, k: k}, dst, b, bias, m, n, ldb, t)
}

// gemmNN runs op over all m rows, split across t's workers when the work
// is worth a fork.
func gemmNN(op nnOp, dst, b, bias []float32, m, n, ldb int, t *Team) {
	if !t.forks(m, int64(m)*int64(n)*int64(op.k)) {
		gemmNNRows(op, dst, b, bias, n, ldb, 0, m)
		return
	}
	t.rows = rowJob{kernel: gemmNNPart, m: m, dst: dst, op: op, b: b, bias: bias, n: n, ldb: ldb}
	t.forRows(gemmMR)
}

func gemmNNPart(j *rowJob, r0, r1 int) { gemmNNRows(j.op, j.dst, j.b, j.bias, j.n, j.ldb, r0, r1) }

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
	gemmNNPanel(nnOp{a: a, k: k}, dst, panel, ldd, nc, kb, kc, 0, nc, r0, r1)
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

// gemmNNRows runs op over output rows [r0, r1) of a whole B (rows ldb
// floats apart, like dst's).  Rows are first seeded with their bias, then
// depth panels accumulate in ascending order; inside a panel, column panels
// bound the L2-resident b block.
func gemmNNRows(op nnOp, dst, b, bias []float32, n, ldb, r0, r1 int) {
	seedRows(dst, bias, n, ldb, r0, r1)
	for kb := 0; kb < op.k; kb += nnKC {
		kc := min(op.k-kb, nnKC)
		for jb := 0; jb < n; jb += nnNC {
			gemmNNPanel(op, dst, b[kb*ldb:], ldb, ldb, kb, kc, jb, min(n-jb, nnNC), r0, r1)
		}
	}
}

// nnOp is one GEMM call's A operand and tier, as the panel driver reads
// them.  The reference tier (fused false) runs the bit-exact tiles on the
// row-major a.  The fast tier runs the fused tiles on PackA's panels and
// keeps a for its portable loops; spill says whether its column tail may
// take the spill tile (the panel entry point) or always takes the strided
// dot (the others).
type nnOp struct {
	a, panels    []float32
	k            int
	fused, spill bool
}

// columns splits the nc columns of one panel, which start at column c0 of
// b, among rung t's kernels for op: the first zmm go to the 4x32 ZMM tile,
// the next ymm to the 4x16 YMM tile and the rest, narrower than nnNR, to
// the spill tile over b's first spill depth rows and to the portable loops
// over the others.  The spill tile is the YMM tile run on a stack copy of
// the tail's dst rows; it reads nnNR floats of each depth row, past the
// tail, so it takes only the rows that stay inside cap(b).  The reference
// tier takes as many as fit: its bits do not depend on the kernel.  The
// fast tier takes all kc or none, and none unless op.spill.  On the generic
// rung every column is portable.
func (op nnOp) columns(t SIMDTier, b []float32, c0, nc, kc, ldb int) (zmm, ymm, spill int) {
	if t == TierGeneric {
		return 0, 0, 0
	}
	if t == TierAVX512 {
		zmm = nc &^ 31
	}
	ymm = (nc - zmm) &^ (nnNR - 1)
	room := cap(b) - c0 - zmm - ymm - nnNR
	if ymm+zmm == nc || room < 0 || op.fused && (!op.spill || room < (kc-1)*ldb) {
		return zmm, ymm, 0
	}
	return zmm, ymm, min(kc, room/ldb+1)
}

// gemmNNTile runs one 4-row tile: the ZMM body when zmm, else the YMM one,
// with VFMADD231PS when fused, else VMULPS then VADDPS.
func gemmNNTile(fused, zmm bool, dst, a, b []float32, kc, nc, ldd, ldb, lda, ldk int) {
	switch {
	case zmm && fused:
		gemmNNTile32FMA(dst, a, b, kc, nc, ldd, ldb, lda, ldk)
	case zmm:
		gemmNNTile32(dst, a, b, kc, nc, ldd, ldb, lda, ldk)
	case fused:
		gemmNNTile16FMA(dst, a, b, kc, nc, ldd, ldb, lda, ldk)
	default:
		gemmNNTile16(dst, a, b, kc, nc, ldd, ldb, lda, ldk)
	}
}

// gemmNNPanel is both tiers' panel driver: it accumulates the depth slab
// [kb, kb+kc) over columns [jb, jb+nc) for rows [r0, r1); b starts at the
// slab's first depth row, with rows ldb floats apart, and dst rows are ldd
// floats apart.  Full 4-row tiles run op.columns' split, the tail's
// non-spill depth rows taking the strided dot.  The m%4 rows run, on the
// reference tier, the 1x8 kernel over the vector columns and the portable
// loops over the rest; on the fast tier the strided dot on op.a.
func gemmNNPanel(op nnOp, dst, b []float32, ldd, ldb, kb, kc, jb, nc, r0, r1 int) {
	zmm, ymm, spill := op.columns(fastTier, b, jb, nc, kc, ldb)
	c, tail := jb+zmm+ymm, nc-zmm-ymm
	var block [nnMR * nnNR]float32
	i := r0
	for ; zmm+ymm+spill > 0 && i+nnMR <= r1; i += nnMR {
		d, a, lda, ldk := dst[i*ldd:], op.a[i*op.k+kb:], op.k, 1
		if op.fused { // i is a multiple of nnMR: the fast tier's rows are tile-aligned
			a, lda, ldk = op.panels[i*op.k+kb*nnMR:], 1, nnMR
		}
		if zmm > 0 {
			gemmNNTile(op.fused, true, d[jb:], a, b[jb:], kc, zmm, ldd, ldb, lda, ldk)
		}
		if ymm > 0 {
			gemmNNTile(op.fused, false, d[jb+zmm:], a, b[jb+zmm:], kc, ymm, ldd, ldb, lda, ldk)
		}
		if spill > 0 {
			for r := 0; r < nnMR; r++ {
				copy(block[r*nnNR:r*nnNR+tail], d[r*ldd+c:])
			}
			gemmNNTile(op.fused, false, block[:], a, b[c:c+(spill-1)*ldb+nnNR], spill, nnNR, nnNR, ldb, lda, ldk)
			for r := 0; r < nnMR; r++ {
				copy(d[r*ldd+c:r*ldd+c+tail], block[r*nnNR:])
			}
		}
		if tail > 0 && spill < kc {
			gemmNNDot(dst, op.a, b[spill*ldb:], op.k, ldd, ldb, kb+spill, kc-spill, c, tail, i, i+nnMR)
		}
	}
	if i == r1 {
		return
	}
	if op.fused {
		gemmNNDot(dst, op.a, b, op.k, ldd, ldb, kb, kc, jb, nc, i, r1)
		return
	}
	if v := nc &^ 7; fastTier > TierGeneric && v > 0 {
		for r := i; r < r1; r++ {
			gemmNNKernel1(dst[r*ldd+jb:], op.a[r*op.k+kb:], b[jb:], kc, v, ldb)
		}
		jb, nc = jb+v, nc-v
	}
	if nc >= 8 {
		gemmNNAxpy(dst, op.a, b, op.k, ldd, ldb, kb, kc, jb, nc, i, r1)
	} else if nc > 0 {
		gemmNNDot(dst, op.a, b, op.k, ldd, ldb, kb, kc, jb, nc, i, r1)
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
				d0[j] += float32(av0 * bv)
				d1[j] += float32(av1 * bv)
				d2[j] += float32(av2 * bv)
				d3[j] += float32(av3 * bv)
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
				d[j] += float32(av * bv)
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
				s0 += float32(a0[l] * bv)
				s1 += float32(a1[l] * bv)
				s2 += float32(a2[l] * bv)
				s3 += float32(a3[l] * bv)
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
				s += float32(av * b[bi])
				bi += ldb
			}
			dst[i*ldd+j] = s
		}
	}
}
