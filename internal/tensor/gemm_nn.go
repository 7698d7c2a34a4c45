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
// Both tiers share one tile family, one column split (columns) and one panel
// driver with one edge rule (gemmNNPanel), on the one SIMD ladder
// (SIMDTier): TierAVX512 runs the 4x32 ZMM tile, TierFMA the 4x16 YMM tile
// (which also takes the AVX-512 rung's 16-column remainder and every rung's
// staged tail), and TierGeneric portable loops, which are all that hosts
// without AVX2 and FMA and other architectures run.
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
	// nnNR is the YMM tile's width; the column tail narrower than it runs
	// the YMM tile on staged copies (gemmNNTail).
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
// the rows.  kc must be at most FusedKC.
func GemmNNAccumPanel(dst, a, panel, bias []float32, k, kb, kc, nc, ldd, r0, r1 int) {
	if r0 < 0 || r1 <= r0 || nc <= 0 || kc <= 0 || kc > FusedKC || kb < 0 || kb+kc > k {
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

// nnOp is one GEMM call's A operand and tier.  The reference tier (fused
// false) runs the bit-exact tiles on the row-major a.  The fast tier runs the
// fused tiles on PackA's panels and keeps a for its m%4 rows.
type nnOp struct {
	a, panels []float32
	k         int
	fused     bool
}

// rowTile is one tile: rows output rows, A[r][l] at a[r*lda+l*ldk] from
// depth kb on, dst rows ldd apart; fused: VFMADD231PS, else VMULPS+VADDPS.
type rowTile struct {
	a                   []float32
	lda, ldk, ldd, rows int
	fused               bool
}

// tile returns the tile at row i of rows [i, r1), its dst rows ldd floats
// apart.  A full tile is nnMR rows: PackA's panels with the fused accumulate
// on the fast tier (its rows are tile-aligned), the row-major a on the
// reference one.  An m%4 row is one row of a with A and dst row strides 0,
// so all four lanes compute it with mul+add on both tiers: the scalar
// sequence lane for lane.
func (op nnOp) tile(i, r1, kb, ldd int) rowTile {
	switch {
	case i+nnMR > r1:
		return rowTile{a: op.a[i*op.k+kb:], ldk: 1, rows: 1}
	case op.fused:
		return rowTile{a: op.panels[i*op.k+kb*nnMR:], lda: 1, ldk: nnMR, ldd: ldd, rows: nnMR, fused: true}
	}
	return rowTile{a: op.a[i*op.k+kb:], lda: op.k, ldk: 1, ldd: ldd, rows: nnMR}
}

// columns splits the nc columns of one panel among rung t's tiles: the first
// zmm go to the 4x32 ZMM tile, the next ymm to the 4x16 YMM tile.  The rest,
// narrower than nnNR, is the tail (gemmNNTail).  On the generic rung every
// column is portable.
func columns(t SIMDTier, nc int) (zmm, ymm int) {
	if t == TierGeneric {
		return 0, 0
	}
	if t == TierAVX512 {
		zmm = nc &^ 31
	}
	return zmm, (nc - zmm) &^ (nnNR - 1)
}

// run runs the tile over nc columns: the ZMM body when zmm, else the YMM
// one.
func (t rowTile) run(zmm bool, dst, b []float32, kc, nc, ldb int) {
	switch {
	case zmm && t.fused:
		gemmNNTile32FMA(dst, t.a, b, kc, nc, t.ldd, ldb, t.lda, t.ldk)
	case zmm:
		gemmNNTile32(dst, t.a, b, kc, nc, t.ldd, ldb, t.lda, t.ldk)
	case t.fused:
		gemmNNTile16FMA(dst, t.a, b, kc, nc, t.ldd, ldb, t.lda, t.ldk)
	default:
		gemmNNTile16(dst, t.a, b, kc, nc, t.ldd, ldb, t.lda, t.ldk)
	}
}

// gemmNNPanel is both tiers' panel driver: it accumulates the depth slab
// [kb, kb+kc) over columns [jb, jb+nc) for rows [r0, r1); b starts at the
// slab's first depth row, with rows ldb floats apart, and dst rows are ldd
// floats apart.  On a vector rung every row tile, the m%4 rows' included,
// runs columns' split and the tail (gemmNNTail); on the generic rung the
// portable loops run everything, in the reference order.
func gemmNNPanel(op nnOp, dst, b []float32, ldd, ldb, kb, kc, jb, nc, r0, r1 int) {
	if fastTier == TierGeneric {
		gemmNNAxpy(dst, op.a, b, op.k, ldd, ldb, kb, kc, jb, nc, r0, r1)
		return
	}
	zmm, ymm := columns(fastTier, nc)
	for i := r0; i < r1; {
		t := op.tile(i, r1, kb, ldd)
		if zmm > 0 {
			t.run(true, dst[i*ldd+jb:], b[jb:], kc, zmm, ldb)
		}
		if ymm > 0 {
			t.run(false, dst[i*ldd+jb+zmm:], b[jb+zmm:], kc, ymm, ldb)
		}
		i += t.rows
	}
	if tail := nc - zmm - ymm; tail > 0 {
		gemmNNTail(op, dst, b, ldd, ldb, kb, kc, jb+zmm+ymm, tail, r0, r1)
	}
}

// gemmNNTail runs the columns [c, c+tail), tail < nnNR, of rows [r0, r1) as
// the YMM tile on stack copies: b's kc x tail block is staged once, 16
// floats a row, and each tile's dst rows into a 4x16 block (one row of it,
// row stride 0, for an m%4 row).  Every tile keeps its accumulate, so a
// column's bits do not depend on whether it lands in the tail.
func gemmNNTail(op nnOp, dst, b []float32, ldd, ldb, kb, kc, c, tail, r0, r1 int) {
	var bs [nnKC * nnNR]float32
	var block [nnMR * nnNR]float32
	for l := 0; l < kc; l++ {
		copy(bs[l*nnNR:l*nnNR+tail], b[l*ldb+c:])
	}
	for i := r0; i < r1; {
		t := op.tile(i, r1, kb, nnNR)
		for r := 0; r < t.rows; r++ {
			copy(block[r*nnNR:r*nnNR+tail], dst[(i+r)*ldd+c:])
		}
		t.run(false, block[:], bs[:kc*nnNR], kc, nnNR, nnNR)
		for r := 0; r < t.rows; r++ {
			copy(dst[(i+r)*ldd+c:(i+r)*ldd+c+tail], block[r*nnNR:])
		}
		i += t.rows
	}
}

// gemmNNAxpy is the portable kernel, at every width: every b row of the
// slab streams contiguously into four dst rows at a time (dst[i][j] +=
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
