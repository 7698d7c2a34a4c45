package tensor

import (
	"fmt"

	"tango/internal/par"
)

// This file implements the transposed-operand ("NT") float32 matrix kernels
// of the native compute engine: the register-tiled mat-vec behind the
// single-sample fully-connected layers and recurrent gates, and the
// cache-blocked GEMM of the same contract.  Convolutions run on GemmNN
// (gemm_nn.go).
//
// Determinism contract: every output element dst[i*n+j] is computed as
//
//	bias[i] + a[i][0]*bt[j][0] + a[i][1]*bt[j][1] + ... + a[i][k-1]*bt[j][k-1]
//
// accumulated left to right in float32, exactly like a scalar dot product.
// Depth blocking processes l in ascending panels with a single persistent
// accumulator per element, and row tiling gives each element its own
// accumulator, so the summation order — and therefore the bit pattern of the
// result — is independent of the blocking parameters and of the worker
// count.  This is what lets the GEMM path be validated bit-exactly against
// the direct convolution reference, serially and in parallel.
const (
	// gemmMR is the register tile height: rows of A processed together so
	// one streamed element of B feeds four independent accumulators.
	gemmMR = 4
	// gemmKC is the depth blocking factor: the B panel touched by one pass,
	// n x gemmKC floats, stays L2-resident while every row tile streams it.
	gemmKC = 256
)

// Gemm computes dst = A * Bᵀ + bias on row-major float32 buffers:
// A is m x k, bt holds B transposed as n x k (so row j of bt is column j of
// B, contiguous in memory), and dst is m x n.  bias has one element per
// output row and may be nil for zero.  dst is fully overwritten.
//
// Storing B transposed makes both operands of the inner dot product
// contiguous.
func Gemm(dst, a, bt, bias []float32, m, n, k int) {
	checkGemmArgs(dst, a, bt, bias, m, n, k)
	gemmRows(dst, a, bt, bias, n, k, 0, m)
}

// Team is a par.Team together with the argument block of the row-panel
// kernels (MatVecBiasParallel, GemmNNParallel, GemmNNFastParallel,
// MatVecFastParallel, GemmInt8, MatVecInt8), so a forked kernel call
// allocates nothing.  A nil Team, or one of one worker, runs every kernel
// serially.  Like par.Team it is not safe for concurrent use.
type Team struct {
	*par.Team
	rows rowJob
}

// rowJob is one row-panel fork: part p runs kernel over rows [p*chunk,
// min(p*chunk+chunk, m)).  Panel boundaries never affect results: each
// output row belongs to exactly one panel.
type rowJob struct {
	kernel          func(j *rowJob, r0, r1 int)
	m, chunk        int
	dst, a, b, bias []float32
	op              nnOp
	pq              *PackedInt8
	u8              []uint8
	acc             []int32
	scale           float32
	n, k, ldb       int
}

func (j *rowJob) Run(p int) {
	r0 := p * j.chunk
	j.kernel(j, r0, min(r0+j.chunk, j.m))
}

// ForkMinWork is the work below which the engine does not fork, in
// reference-GEMM multiply-accumulates (about 75 ps each on a 2.1 GHz Xeon),
// so about a millisecond.  Waking a parked helper takes 0.1-0.2 ms on a
// shared two-vCPU VM; forking CifarNet's layers (at most 6.5 M MACs each)
// bought no wall time for +50 % CPU.  Tests lower it to fork every op.
var ForkMinWork int64 = 1 << 24

// matVecCost is a mat-vec multiply-accumulate in ForkMinWork's units: it
// streams its weight from memory, at about 0.6 ns.
const matVecCost = 8

// Forks reports whether work of the given size (in ForkMinWork's units)
// should fork on t.
func (t *Team) Forks(work int64) bool {
	return t != nil && t.Workers() > 1 && work >= ForkMinWork
}

// forks reports whether a row-panel problem of rows rows and the given work
// should fork: at least two register tiles of rows, and Forks.
func (t *Team) forks(rows int, work int64) bool {
	return rows >= 2*gemmMR && t.Forks(work)
}

// forRows runs t.rows over its m rows in contiguous panels, one per worker,
// aligned to the kernel's mr-row register tile so only the last panel runs
// the remainder rows.  Callers gate with forks first.
func (t *Team) forRows(mr int) {
	j := &t.rows
	workers := min(t.Workers(), j.m/mr)
	j.chunk = ((j.m+workers-1)/workers + mr - 1) / mr * mr
	t.Do((j.m+j.chunk-1)/j.chunk, j)
}

func checkGemmArgs(dst, a, bt, bias []float32, m, n, k int) {
	if m <= 0 || n <= 0 || k <= 0 {
		panic(fmt.Sprintf("tensor: gemm dims must be positive, got m=%d n=%d k=%d", m, n, k))
	}
	if len(dst) < m*n || len(a) < m*k || len(bt) < n*k {
		panic(fmt.Sprintf("tensor: gemm buffers too small: dst=%d a=%d bt=%d for m=%d n=%d k=%d",
			len(dst), len(a), len(bt), m, n, k))
	}
	if bias != nil && len(bias) < m {
		panic(fmt.Sprintf("tensor: gemm bias has %d elements, want %d", len(bias), m))
	}
}

// gemmRows runs the blocked kernel over output rows [r0, r1).  The depth
// loop is outermost so the bt panel (n x kc floats) is reused by every row
// tile while it is cache-hot; partial sums persist in dst between panels.
func gemmRows(dst, a, bt, bias []float32, n, k, r0, r1 int) {
	for kb := 0; kb < k; kb += gemmKC {
		kc := k - kb
		if kc > gemmKC {
			kc = gemmKC
		}
		first := kb == 0
		i := r0
		for ; i+gemmMR <= r1; i += gemmMR {
			a0 := a[i*k+kb : i*k+kb+kc]
			a1 := a[(i+1)*k+kb : (i+1)*k+kb+kc]
			a2 := a[(i+2)*k+kb : (i+2)*k+kb+kc]
			a3 := a[(i+3)*k+kb : (i+3)*k+kb+kc]
			d0 := dst[i*n : i*n+n]
			d1 := dst[(i+1)*n : (i+1)*n+n]
			d2 := dst[(i+2)*n : (i+2)*n+n]
			d3 := dst[(i+3)*n : (i+3)*n+n]
			var b0, b1, b2, b3 float32
			if bias != nil {
				b0, b1, b2, b3 = bias[i], bias[i+1], bias[i+2], bias[i+3]
			}
			for j := 0; j < n; j++ {
				c := bt[j*k+kb : j*k+kb+kc]
				a0 := a0[:len(c)]
				a1 := a1[:len(c)]
				a2 := a2[:len(c)]
				a3 := a3[:len(c)]
				var s0, s1, s2, s3 float32
				if first {
					s0, s1, s2, s3 = b0, b1, b2, b3
				} else {
					s0, s1, s2, s3 = d0[j], d1[j], d2[j], d3[j]
				}
				for l, cv := range c {
					s0 += float32(a0[l] * cv)
					s1 += float32(a1[l] * cv)
					s2 += float32(a2[l] * cv)
					s3 += float32(a3[l] * cv)
				}
				d0[j] = s0
				d1[j] = s1
				d2[j] = s2
				d3[j] = s3
			}
		}
		for ; i < r1; i++ {
			ar := a[i*k+kb : i*k+kb+kc]
			d := dst[i*n : i*n+n]
			var bi float32
			if bias != nil {
				bi = bias[i]
			}
			for j := 0; j < n; j++ {
				c := bt[j*k+kb : j*k+kb+kc]
				ar := ar[:len(c)]
				s := bi
				if !first {
					s = d[j]
				}
				for l, cv := range c {
					s += float32(ar[l] * cv)
				}
				d[j] = s
			}
		}
	}
}

// MatVecBias computes dst = W*x + bias for a rows x cols row-major matrix,
// with the register-tiled kernel: four matrix rows share each streamed
// element of x.  Each dst element accumulates its dot product left to right
// in float32 starting from its bias (zero when bias is nil), matching the
// scalar reference loop bit for bit.  dst is fully overwritten.
func MatVecBias(dst, w, x, bias []float32, rows, cols int) {
	checkMatVecArgs(dst, w, x, bias, rows, cols)
	matVecRows(dst, w, x, bias, cols, 0, rows)
}

// MatVecBiasParallel is MatVecBias with rows split across t's workers; the
// result is bit-identical to the serial kernel.
func MatVecBiasParallel(dst, w, x, bias []float32, rows, cols int, t *Team) {
	checkMatVecArgs(dst, w, x, bias, rows, cols)
	if !t.forks(rows, matVecCost*int64(rows)*int64(cols)) {
		matVecRows(dst, w, x, bias, cols, 0, rows)
		return
	}
	t.rows = rowJob{kernel: matVecPart, m: rows, dst: dst, a: w, b: x, bias: bias, k: cols}
	t.forRows(gemmMR)
}

func matVecPart(j *rowJob, r0, r1 int) { matVecRows(j.dst, j.a, j.b, j.bias, j.k, r0, r1) }

func checkMatVecArgs(dst, w, x, bias []float32, rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: matvec dims must be positive, got %dx%d", rows, cols))
	}
	if len(dst) < rows || len(w) < rows*cols || len(x) < cols {
		panic(fmt.Sprintf("tensor: matvec buffers too small: dst=%d w=%d x=%d for %dx%d",
			len(dst), len(w), len(x), rows, cols))
	}
	if bias != nil && len(bias) < rows {
		panic(fmt.Sprintf("tensor: matvec bias has %d elements, want %d", len(bias), rows))
	}
}

func matVecRows(dst, w, x, bias []float32, cols, r0, r1 int) {
	x = x[:cols]
	i := r0
	for ; i+gemmMR <= r1; i += gemmMR {
		w0 := w[i*cols : i*cols+cols]
		w1 := w[(i+1)*cols : (i+1)*cols+cols]
		w2 := w[(i+2)*cols : (i+2)*cols+cols]
		w3 := w[(i+3)*cols : (i+3)*cols+cols]
		w0 = w0[:len(x)]
		w1 = w1[:len(x)]
		w2 = w2[:len(x)]
		w3 = w3[:len(x)]
		var s0, s1, s2, s3 float32
		if bias != nil {
			s0, s1, s2, s3 = bias[i], bias[i+1], bias[i+2], bias[i+3]
		}
		for l, xv := range x {
			s0 += float32(w0[l] * xv)
			s1 += float32(w1[l] * xv)
			s2 += float32(w2[l] * xv)
			s3 += float32(w3[l] * xv)
		}
		dst[i] = s0
		dst[i+1] = s1
		dst[i+2] = s2
		dst[i+3] = s3
	}
	for ; i < r1; i++ {
		row := w[i*cols : i*cols+cols]
		row = row[:len(x)]
		var s float32
		if bias != nil {
			s = bias[i]
		}
		for l, xv := range x {
			s += float32(row[l] * xv)
		}
		dst[i] = s
	}
}
