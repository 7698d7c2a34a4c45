package tensor

// Fast-numerics GEMM tier: the opt-in counterpart to the bit-exact kernels
// in gemm.go / gemm_nn.go.  The reference kernels keep one accumulator per
// output element and separate multiply/add instructions so every blocking
// and worker count reproduces the scalar summation order bit for bit; that
// contract caps throughput well below machine peak.  The fast tier trades
// the bit-exact guarantee for speed: weight panels are packed once into the
// kernel-native layout, the amd64 microkernels use fused multiply-add with
// multiple independent accumulator chains, and an AVX-512 variant widens the
// register tile further.  Results differ from the reference only by
// float32 rounding (FMA keeps the intermediate product unrounded and wide
// tiles split the reduction), which callers bound with tolerance-based
// golden tests rather than bit equality.
//
// Tier selection is runtime CPUID/XGETBV detection with a testable override
// (SetFastTier) that can force any tier at or below the detected one, so CI
// exercises the AVX-512 -> FMA -> generic ladder on one machine.  The
// generic tier falls back to the portable order-preserving scalar kernel.

// SIMDTier identifies one rung of the fast-kernel ladder.  Higher tiers are
// strict supersets of the features below them.
type SIMDTier int

const (
	// TierGeneric is the portable Go fallback (also the only tier on
	// non-amd64 builds); it matches the reference summation order.
	TierGeneric SIMDTier = iota
	// TierFMA uses 256-bit fused-multiply-add kernels (requires AVX2+FMA
	// and OS YMM state support).
	TierFMA
	// TierAVX512 uses 512-bit fused-multiply-add kernels (requires
	// AVX-512 F/DQ/BW/VL and OS ZMM+opmask state support).
	TierAVX512
)

func (t SIMDTier) String() string {
	switch t {
	case TierFMA:
		return "fma"
	case TierAVX512:
		return "avx512"
	default:
		return "generic"
	}
}

// fastTier is the active tier consulted by every fast-path entry point.  It
// starts at the detected maximum and is only mutated by SetFastTier (tests).
var fastTier = fastTierDetected

// DetectedTier reports the best tier the running CPU and OS support.
func DetectedTier() SIMDTier { return fastTierDetected }

// FastTier reports the tier the fast kernels currently dispatch to.
func FastTier() SIMDTier { return fastTier }

// SetFastTier forces the fast kernels onto tier t, clamped to the detected
// maximum (forcing AVX-512 on a machine without it selects the best
// available tier instead of faulting).  It returns the tier actually
// applied.  This is the feature-override hook used by the tier-equivalence
// tests; production code never calls it.
func SetFastTier(t SIMDTier) SIMDTier {
	if t > fastTierDetected {
		t = fastTierDetected
	}
	if t < TierGeneric {
		t = TierGeneric
	}
	fastTier = t
	return fastTier
}

// PackedA holds an m x k weight matrix repacked once into the fast kernels'
// native layout: full nnMR-row panels store their rows depth-interleaved
// (panel element l*nnMR+r is a[row r][depth l]), so the microkernel's
// per-depth-step broadcasts read 16 consecutive bytes instead of gathering
// across four strided rows.  The original row-major slice is retained for
// remainder rows, narrow column tails and the generic tier.  A PackedA is
// immutable after PackA and safe for concurrent use.
type PackedA struct {
	panels []float32
	src    []float32
	m, k   int
}

// Cols returns k, the shared (depth) dimension.
func (p *PackedA) Cols() int { return p.k }

// Bytes returns the storage the pack itself holds: the interleaved panel
// buffer.  The retained src slice aliases the caller's weight matrix and is
// accounted there, not here.
func (p *PackedA) Bytes() int64 {
	if p == nil {
		return 0
	}
	return int64(len(p.panels)) * 4
}

// PackA packs the row-major m x k matrix a for the fast GEMM kernels.  The
// returned PackedA aliases a (callers must not mutate a afterwards), plus
// one panel buffer allocated here: packing happens once per weight matrix,
// keeping the per-inference steady state allocation-free.
func PackA(a []float32, m, k int) *PackedA {
	if m <= 0 || k <= 0 {
		panic("tensor: PackA dims must be positive")
	}
	if len(a) < m*k {
		panic("tensor: PackA buffer too small")
	}
	p := &PackedA{src: a[:m*k], m: m, k: k}
	full := m / nnMR
	if full == 0 {
		return p
	}
	p.panels = make([]float32, full*nnMR*k)
	for pi := 0; pi < full; pi++ {
		base := pi * nnMR * k
		r := pi * nnMR
		for l := 0; l < k; l++ {
			p.panels[base+l*nnMR+0] = a[r*k+l]
			p.panels[base+l*nnMR+1] = a[(r+1)*k+l]
			p.panels[base+l*nnMR+2] = a[(r+2)*k+l]
			p.panels[base+l*nnMR+3] = a[(r+3)*k+l]
		}
	}
	return p
}

// fastVecCols returns the microkernel column tile width for tier t (0 when
// the tier has no vector kernel).
func fastVecCols(t SIMDTier) int {
	switch t {
	case TierFMA:
		return 16
	case TierAVX512:
		return 32
	default:
		return 0
	}
}

// Fused-staging geometry: the panel grid the panel kernels (GemmNNAccumPanel,
// GemmNNFastAccumPanel, GemmInt8Panel) operate on.  The engine's
// convolution walks output columns in FusedNC panels and depth in FusedKC
// slabs, so one packed B panel is at most FusedPanelFloats floats and stays
// L2-resident while every weight row tile streams it.  The grid is the
// GEMMs' own nnKC/nnNC blocking.
const (
	// FusedKC is the depth slab of the panel grid (== nnKC).
	FusedKC = nnKC
	// FusedNC is the column panel of the panel grid (== nnNC).
	FusedNC = nnNC
	// FusedPanelFloats is the B panel buffer length fused callers provide.
	FusedPanelFloats = FusedKC * FusedNC
)

// GemmNNFast computes dst = A*B + bias like GemmNN, with A pre-packed and
// the active fast tier's kernels.  b is k x n row-major with row stride ldb
// (>= n); dst rows are also ldb apart.  Results agree with GemmNN within
// float32 rounding, not bit-exactly.
func GemmNNFast(dst []float32, pa *PackedA, b, bias []float32, n, ldb int) {
	checkGemmNNArgs(dst, pa.src, b, bias, pa.m, n, pa.k, ldb)
	gemmNNFastRows(dst, pa, b, bias, n, ldb, 0, pa.m, fastTier)
}

// GemmNNFastParallel is GemmNNFast with the row dimension split across t's
// workers.  Row panels are tile-aligned and each output element is produced
// by exactly one worker, so — unlike the batch-size-dependent column
// tails — the result is identical for any worker count.
func GemmNNFastParallel(dst []float32, pa *PackedA, b, bias []float32, n, ldb int, t *Team) {
	checkGemmNNArgs(dst, pa.src, b, bias, pa.m, n, pa.k, ldb)
	if !t.forks(pa.m, int64(pa.m)*int64(n)*int64(pa.k)) {
		gemmNNFastRows(dst, pa, b, bias, n, ldb, 0, pa.m, fastTier)
		return
	}
	t.rows = rowJob{kernel: gemmNNFastPart, m: pa.m, dst: dst, pa: pa, b: b, bias: bias, n: n, ldb: ldb}
	t.forRows(gemmMR)
}

func gemmNNFastPart(j *rowJob, r0, r1 int) {
	gemmNNFastRows(j.dst, j.pa, j.b, j.bias, j.n, j.ldb, r0, r1, fastTier)
}

// GemmNNFastAccumPanel accumulates one fused B panel into a strided output
// block: dst[i*ldd + j] += sum_l pa[i][kb+l] * panel[l*nc + j] for every
// output row i and j in [0, nc), where panel holds the kc x nc B block
// covering depth rows [kb, kb+kc) in compact row-major layout (stride nc).
// When kb == 0 the touched dst columns are first seeded with bias (zero for
// nil), so walking kb over ascending FusedKC slabs computes the full
// product without ever materializing B.  kc must be at most FusedKC and nc
// at most FusedNC; the caller owns the panel grid, which must not depend on
// the worker fan-out (panels covering disjoint columns may run
// concurrently).  With spill slack in the panel's backing array, a full
// 4-row tile's bits do not depend on the column-panel width.
func GemmNNFastAccumPanel(dst []float32, pa *PackedA, panel, bias []float32, kb, kc, nc, ldd int) {
	m, k := pa.m, pa.k
	if nc <= 0 || kc <= 0 || kb < 0 || kb+kc > k {
		panic("tensor: fused panel slab out of range")
	}
	if ldd < nc || len(dst) < (m-1)*ldd+nc || len(panel) < kc*nc {
		panic("tensor: fused panel buffers too small")
	}
	if bias != nil && len(bias) < m {
		panic("tensor: fused panel bias too short")
	}
	if kb == 0 {
		seedRows(dst, bias, nc, ldd, 0, m)
	}
	t := fastTier
	vw := fastVecCols(t)
	// The panel is compact (row stride nc), so a sub-16 column tail can
	// still run the vector kernel: accumulate a full 16-wide tile into a
	// stack spill block, reading past the tail into the next panel row
	// (those lanes are independent and discarded), then copy only the live
	// columns back.  Needs slack in the panel's backing array for the
	// overread; the worker panel buffers always have it except when the
	// panel is exactly full — and a full panel has no tail.
	var spill [nnMR * 16]float32
	i := 0
	if vw > 0 {
		for ; i+nnMR <= m; i += nnMR {
			ncVec := nc &^ (vw - 1)
			ap := pa.panels[(i/nnMR)*nnMR*k+kb*nnMR:]
			if ncVec > 0 {
				if t == TierAVX512 {
					gemmNNAVX512Kernel(dst[i*ldd:], ap, panel, kc, ncVec, ldd, nc)
				} else {
					gemmNNFMAKernel(dst[i*ldd:], ap, panel, kc, ncVec, ldd, nc)
				}
			}
			if t == TierAVX512 && nc-ncVec >= 16 {
				gemmNNFMAKernel(dst[i*ldd+ncVec:], ap, panel[ncVec:], kc, 16, ldd, nc)
				ncVec += 16
			}
			if tail := nc - ncVec; tail > 0 {
				if ncVec+(kc-1)*nc+16 <= cap(panel) {
					for r := 0; r < nnMR; r++ {
						copy(spill[r*16:r*16+tail], dst[(i+r)*ldd+ncVec:])
					}
					gemmNNFMAKernel(spill[:], ap, panel[ncVec:ncVec+(kc-1)*nc+16], kc, 16, 16, nc)
					for r := 0; r < nnMR; r++ {
						copy(dst[(i+r)*ldd+ncVec:(i+r)*ldd+nc], spill[r*16:])
					}
				} else {
					gemmNNDot(dst, pa.src, panel, k, ldd, nc, kb, kc, ncVec, tail, i, i+nnMR)
				}
			}
		}
	}
	if i < m {
		gemmNNDot(dst, pa.src, panel, k, ldd, nc, kb, kc, 0, nc, i, m)
	}
}

// gemmNNFastRows runs the blocked fast kernel over output rows [r0, r1),
// reusing the reference path's panel geometry (nnKC depth slabs, nnNC
// column panels) so the streamed b block stays L2-resident.  b and dst rows
// are ldb floats apart.  Full 4-row panels with wide column blocks go to
// the tier's FMA/AVX-512 kernel; on the AVX-512 tier a 16-column FMA block
// mops up before the scalar tail.  Remainder rows and narrow tails use the
// order-preserving scalar kernel on the retained row-major weights.
func gemmNNFastRows(dst []float32, pa *PackedA, b, bias []float32, n, ldb, r0, r1 int, t SIMDTier) {
	k := pa.k
	seedRows(dst, bias, n, ldb, r0, r1)
	vw := fastVecCols(t)
	for kb := 0; kb < k; kb += nnKC {
		kc := min(k-kb, nnKC)
		bs := b[kb*ldb:]
		for jb := 0; jb < n; jb += nnNC {
			nc := min(n-jb, nnNC)
			i := r0
			if vw > 0 {
				for ; i+nnMR <= r1; i += nnMR {
					ncVec := nc &^ (vw - 1)
					ap := pa.panels[(i/nnMR)*nnMR*k+kb*nnMR:]
					if ncVec > 0 {
						if t == TierAVX512 {
							gemmNNAVX512Kernel(dst[i*ldb+jb:], ap, bs[jb:], kc, ncVec, ldb, ldb)
						} else {
							gemmNNFMAKernel(dst[i*ldb+jb:], ap, bs[jb:], kc, ncVec, ldb, ldb)
						}
					}
					if t == TierAVX512 && nc-ncVec >= 16 {
						gemmNNFMAKernel(dst[i*ldb+jb+ncVec:], ap, bs[jb+ncVec:], kc, 16, ldb, ldb)
						ncVec += 16
					}
					if ncVec < nc {
						gemmNNDot(dst, pa.src, bs, k, ldb, ldb, kb, kc, jb+ncVec, nc-ncVec, i, i+nnMR)
					}
				}
			}
			if i < r1 {
				gemmNNDot(dst, pa.src, bs, k, ldb, ldb, kb, kc, jb, nc, i, r1)
			}
		}
	}
}

// MatVecFastParallel computes dst = W*x + bias like MatVecBias using the
// active tier's fused-multiply-add dot kernel with four independent
// accumulator chains per row, the rows split across t's workers.  W
// streams once from memory in its natural row-major layout
// (a mat-vec is bandwidth-bound, so panel packing buys nothing here).
// Results agree with MatVecBias within float32 rounding.
func MatVecFastParallel(dst, w, x, bias []float32, rows, cols int, t *Team) {
	checkMatVecArgs(dst, w, x, bias, rows, cols)
	if !t.forks(rows, matVecCost*int64(rows)*int64(cols)) {
		matVecFastRows(dst, w, x, bias, cols, 0, rows, fastTier)
		return
	}
	t.rows = rowJob{kernel: matVecFastPart, m: rows, dst: dst, a: w, b: x, bias: bias, k: cols}
	t.forRows(gemmMR)
}

func matVecFastPart(j *rowJob, r0, r1 int) {
	matVecFastRows(j.dst, j.a, j.b, j.bias, j.k, r0, r1, fastTier)
}

func matVecFastRows(dst, w, x, bias []float32, cols, r0, r1 int, t SIMDTier) {
	var nv int
	avx512 := false
	switch {
	// Prefer the ZMM dot only when its 64-wide step covers the row to
	// within 32 elements; otherwise the FMA variant leaves a shorter
	// scalar tail (cols&^31 vs cols&^63) and wins on narrow rows like
	// the 100-wide recurrent gates.
	case t == TierAVX512 && cols >= 64 && cols%64 < 32:
		nv, avx512 = cols&^63, true
	case t >= TierFMA && cols >= 32:
		nv = cols &^ 31
	default:
		matVecRows(dst, w, x, bias, cols, r0, r1)
		return
	}
	for i := r0; i < r1; i++ {
		row := w[i*cols : i*cols+cols]
		var s float32
		if avx512 {
			s = dotAVX512(row, x, nv)
		} else {
			s = dotFMA(row, x, nv)
		}
		for l := nv; l < cols; l++ {
			s += row[l] * x[l]
		}
		if bias != nil {
			s += bias[i]
		}
		dst[i] = s
	}
}
