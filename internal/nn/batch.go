package nn

import "tango/internal/tensor"

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

// splitJob is one fork of a layer op over contiguous ranges of its units,
// n samples of per units each: a sample's channels (reference LRN, pooling,
// batch norm, scale, global pooling), its pixels (the fast LRN), or the rows
// of a batch transpose (one "sample").  Part p runs units [p*chunk,
// min(p*chunk+chunk, n*per)), calling run once per sample it touches.  Each
// output element is written by one part in the serial order, so the bytes
// do not depend on the split.  The fields after chunk are the ops'
// operands; each op reads its own.
type splitJob struct {
	run                    func(j *splitJob, smp, u0, u1 int)
	o, in                  []float32
	per, total, chunk      int
	c, h, w, outH, outW, n int
	pool                   PoolParams
	lrn                    LRNParams
	bn                     BatchNormParams
	gamma, beta            *tensor.Tensor
	sums                   []float64
}

func (j *splitJob) Run(p int) {
	for u, hi := p*j.chunk, min(p*j.chunk+j.chunk, j.total); u < hi; {
		smp := u / j.per
		end := min(hi, (smp+1)*j.per)
		j.run(j, smp, u-smp*j.per, end-smp*j.per)
		u = end
	}
}

// Costs per element of the split ops, in tensor.ForkMinWork's units
// (reference-GEMM multiply-accumulates, ~75 ps), measured on AlexNet: an
// element copied or scaled, or a pooling tap, ~0.6 ns; a fast-tier LRN
// channel step ~2.5 ns; a reference LRN element ~20 ns (BenchmarkLRNReference).
const (
	elemCost    = 8
	lrnFastCost = 32
	lrnRefCost  = 256
)

// fork runs s.split over n samples of per units, each unit costing about
// cost, on the team when the op is worth a fork (tensor.Team.Forks).
func (s *Scratch) fork(n, per, cost int) {
	j := &s.split
	j.per, j.total = per, n*per
	parts := 1
	if s.team.Forks(int64(j.total) * int64(cost)) {
		parts = min(s.Workers(), j.total)
	}
	j.chunk = (j.total + parts - 1) / parts
	s.team.Do(parts, j)
}

// transposeToColumns repacks sample-major rows (n x f) into feature-major
// columns (f x n): dst[l*n + smp] = src[smp*f + l].  It forks over
// contiguous feature chunks; bytes are identical for any worker count.
func (s *Scratch) transposeToColumns(dst, src []float32, n, f int) {
	s.split = splitJob{run: columnsPart, o: dst, in: src, n: n}
	s.fork(1, f, n*elemCost)
}

func columnsPart(j *splitJob, _, f0, f1 int) {
	transposeToColumnsRange(j.o, j.in, j.n, j.per, f0, f1)
}

// transposeToRows repacks feature-major columns (f x n) back into
// sample-major rows (n x f): dst[smp*f + l] = src[l*n + smp], forked over
// contiguous sample chunks.
func (s *Scratch) transposeToRows(dst, src []float32, n, f int) {
	s.split = splitJob{run: rowsPart, o: dst, in: src, w: f}
	s.fork(1, n, f*elemCost)
}

func rowsPart(j *splitJob, _, s0, s1 int) {
	transposeToRowsRange(j.o, j.in, j.per, j.w, s0, s1)
}

// transposeToColumnsRange writes feature rows [f0, f1) of the (f x n)
// destination.  Disjoint ranges touch disjoint dst rows.
func transposeToColumnsRange(dst, src []float32, n, f, f0, f1 int) {
	for smp := 0; smp < n; smp++ {
		row := src[smp*f+f0 : smp*f+f1]
		for l, v := range row {
			dst[(f0+l)*n+smp] = v
		}
	}
}

// transposeToRowsRange reads the (f x n) feature-major source back into
// sample rows [s0, s1).  Disjoint ranges touch disjoint dst rows.
func transposeToRowsRange(dst, src []float32, n, f, s0, s1 int) {
	for smp := s0; smp < s1; smp++ {
		row := dst[smp*f : (smp+1)*f]
		for l := range row {
			row[l] = src[l*n+smp]
		}
	}
}
