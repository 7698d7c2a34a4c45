package tensor

// Fast-numerics GEMM tier: the opt-in counterpart to the bit-exact
// reference tier.  Both run one tile family, one column split and one panel
// driver (gemm_nn.go).  The fast tier packs its weights once into PackA's
// depth-interleaved panels and accumulates with VFMADD231PS, which keeps
// each product unrounded, where the reference tier multiplies and adds
// separately; its mat-vec also splits the reduction across accumulator
// chains.  Results differ from the reference only by float32 rounding,
// which callers bound with tolerance-based golden tests rather than bit
// equality (TestFloatGemmDigestsPerRung pins the fast GEMM's own bits).
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
// the m%4 rows and the generic tier.  A PackedA is immutable after PackA and
// safe for concurrent use.
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
	GemmNNFastParallel(dst, pa, b, bias, n, ldb, nil)
}

// GemmNNFastParallel is GemmNNFast with the row dimension split across t's
// workers.  Row panels are tile-aligned and each output element is produced
// by exactly one worker, so — unlike the batch-size-dependent column
// tails — the result is identical for any worker count.
func GemmNNFastParallel(dst []float32, pa *PackedA, b, bias []float32, n, ldb int, t *Team) {
	checkGemmNNArgs(dst, pa.src, b, bias, pa.m, n, pa.k, ldb)
	gemmNN(nnOp{a: pa.src, panels: pa.panels, k: pa.k, fused: true}, dst, b, bias, pa.m, n, ldb, t)
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
// concurrently).  A column tail runs the vector columns' FMA chain, so the
// bits do not depend on the column-panel width.
func GemmNNFastAccumPanel(dst []float32, pa *PackedA, panel, bias []float32, kb, kc, nc, ldd int) {
	m, k := pa.m, pa.k
	if nc <= 0 || kc <= 0 || kc > FusedKC || kb < 0 || kb+kc > k {
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
	op := nnOp{a: pa.src, panels: pa.panels, k: pa.k, fused: true, fusedTail: true}
	gemmNNPanel(op, dst, panel, ldd, nc, kb, kc, 0, nc, 0, m)
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
