package nn

import "tango/internal/par"

// This file holds the batch staging of the compute engine.  Feature-map
// batches are rank-4 NCHW tensors (sample-major, each sample a contiguous
// CHW block); vector batches are rank-2 (N, F).  The heavy kernels fold the
// batch into the GEMM column dimension: the convolution core (convStaged)
// stages an l-major (k x N*outH*outW) patch matrix so each per-group GEMM
// sees every output pixel of every image at once; a fully-connected layer of
// two or more samples transposes the inputs to (inF x N) so one GEMM replaces
// N mat-vecs and streams the weight matrix once per batch instead of once
// per sample; and a recurrent layer over two or more sequences transposes
// each time step to (in x N) and keeps its state feature-major (hidden x N),
// so each gate is two GEMMs per step (unroll).
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

// im2colTBatchRange stages patch rows [l0, l1) of the receptive-field
// patches of all images in l-major layout: colT[l*(nImg*n1) + img*n1 +
// oy*outW + ox] where l runs over (channel, ky, kx) of the group's input
// channels.  Padding positions are zero.  The l-major layout keeps eight
// neighbouring output pixels contiguous for the vector GEMM kernel.  Each
// row is written by exactly one call, so any partitioning of the range
// produces identical bytes.
func im2colTBatchRange(colT, in []float32, nImg, sampleStride, inH, inW, icBase int, p ConvParams, outH, outW, l0, l1 int) {
	n1 := outH * outW
	nTot := nImg * n1
	khw := p.KernelH * p.KernelW
	for l := l0; l < l1; l++ {
		ic := l / khw
		rem := l - ic*khw
		ky := rem / p.KernelW
		kx := rem - ky*p.KernelW
		planeOff := (icBase + ic) * inH * inW
		row := colT[l*nTot : (l+1)*nTot]
		for img := 0; img < nImg; img++ {
			plane := in[img*sampleStride+planeOff : img*sampleStride+planeOff+inH*inW]
			packPatchRow(row[img*n1:(img+1)*n1], plane, inH, inW, p, outH, outW, ky, kx, 0)
		}
	}
}

// im2colTBatchPar fans the staging rows over the worker pool in contiguous
// index-ordered chunks.  Partitioning never changes the bytes written, so
// callers stay bit-identical for any worker count; small stagings run
// serially.
func im2colTBatchPar(colT, in []float32, nImg, sampleStride, inH, inW, icBase, icCount int, p ConvParams, outH, outW, workers int) {
	rows := icCount * p.KernelH * p.KernelW
	nTot := nImg * outH * outW
	if workers > rows {
		workers = rows
	}
	if workers <= 1 || int64(rows)*int64(nTot) < stagingParMin {
		im2colTBatchRange(colT, in, nImg, sampleStride, inH, inW, icBase, p, outH, outW, 0, rows)
		return
	}
	forEachChunk(workers, rows, func(l0, l1 int) {
		im2colTBatchRange(colT, in, nImg, sampleStride, inH, inW, icBase, p, outH, outW, l0, l1)
	})
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

// stagingParMin is the element-count floor below which staging copies
// (im2col, batch transposes) stay serial: forking the pool costs more than
// the copy.
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
