package nn

import "tango/internal/par"

// This file holds the batch staging of the compute engine.  Feature-map
// batches are rank-4 NCHW tensors (sample-major, each sample a contiguous
// CHW block); vector batches are rank-2 (N, F).  A convolution needs no
// batch staging: its panel core (fastfused.go) covers each image's output
// with its own panels and writes them in place.  A fully-connected layer of
// two or more samples transposes the inputs to (inF x N) so one GEMM
// replaces N mat-vecs and streams the weight matrix once per batch instead
// of once per sample; and a recurrent layer over two or more sequences
// transposes each time step to (in x N) and keeps its state feature-major
// (hidden x N), so each gate is two GEMMs per step (unroll).
//
// Bit-exactness: each output element is an independent dot product
// accumulated left to right from its bias (see the tensor.GemmNN contract).
// Folding the batch into the column dimension adds columns but never
// changes any element's summation order, so on the reference tier batched
// outputs equal the single-sample engine's bit for bit, for any batch size,
// blocking or worker count.

// batchBuf returns the batch staging buffer for the given slot, sized to n.
// Slot contents are only valid within one engine call.
func (s *Scratch) batchBuf(slot, n int) []float32 {
	for len(s.bbufs) <= slot {
		s.bbufs = append(s.bbufs, nil)
	}
	return grown(&s.bbufs[slot], n)
}

// forEachChunk splits [0, n) into one contiguous index-ordered chunk per
// worker and runs fn(lo, hi) for each on the pool.  Callers return before
// constructing fn when the copy is serial (workers <= 1 or fewer than
// stagingParMin elements): the closure escapes, and the serial path must
// stay allocation-free.
func forEachChunk(workers, n int, fn func(lo, hi int)) {
	chunk := (n + workers - 1) / workers
	_ = par.ForEach(workers, (n+chunk-1)/chunk, func(c int) error {
		fn(c*chunk, min(c*chunk+chunk, n))
		return nil
	})
}

// stagingParMin is the element-count floor below which the batch
// transposes stay serial: forking the pool costs more than the copy.
const stagingParMin = 1 << 15

// transposeToColumnsPar repacks sample-major rows (n x f) into feature-major
// columns (f x ld, ld >= n): dst[l*ld + smp] = src[smp*f + l], with pad
// lanes [n, ld) zeroed so a column-padded GEMM reads defined values.  It
// fans over the worker pool in contiguous feature chunks; bytes are
// identical for any worker count.
func transposeToColumnsPar(dst, src []float32, n, f, ld, workers int) {
	if workers > f {
		workers = f
	}
	if workers <= 1 || int64(ld)*int64(f) < stagingParMin {
		transposeToColumnsRange(dst, src, n, f, ld, 0, f)
		return
	}
	forEachChunk(workers, f, func(f0, f1 int) {
		transposeToColumnsRange(dst, src, n, f, ld, f0, f1)
	})
}

// transposeToColumnsRange writes feature rows [f0, f1) of the (f x ld)
// destination.  Disjoint ranges touch disjoint dst rows.
func transposeToColumnsRange(dst, src []float32, n, f, ld, f0, f1 int) {
	for l := f0; l < f1; l++ {
		clear(dst[l*ld+n : (l+1)*ld])
	}
	for smp := 0; smp < n; smp++ {
		row := src[smp*f+f0 : smp*f+f1]
		for l, v := range row {
			dst[(f0+l)*ld+smp] = v
		}
	}
}

// transposeToRowsRange reads the (f x ld) column-major source back into
// sample rows [s0, s1).  Disjoint ranges touch disjoint dst rows.
func transposeToRowsRange(dst, src []float32, n, f, ld, s0, s1 int) {
	for smp := s0; smp < s1; smp++ {
		row := dst[smp*f : (smp+1)*f]
		for l := range row {
			row[l] = src[l*ld+smp]
		}
	}
}

// transposeToRowsPar repacks feature-major columns (f x ld, the first n of
// each row used) back into sample-major rows (n x f): dst[smp*f + l] =
// src[l*ld + smp], fanned over the worker pool in contiguous sample chunks.
func transposeToRowsPar(dst, src []float32, n, f, ld, workers int) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || int64(n)*int64(f) < stagingParMin {
		transposeToRowsRange(dst, src, n, f, ld, 0, n)
		return
	}
	forEachChunk(workers, n, func(s0, s1 int) {
		transposeToRowsRange(dst, src, n, f, ld, s0, s1)
	})
}
