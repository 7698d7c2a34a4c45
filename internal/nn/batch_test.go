package nn

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"tango/internal/par"
	"tango/internal/tensor"
)

// sampleOf copies sample i of a batched tensor into a fresh tensor with the
// per-sample shape.
func sampleOf(t *testing.T, batch *tensor.Tensor, i int) *tensor.Tensor {
	t.Helper()
	n := batch.Dim(0)
	sample := batch.Len() / n
	shape := batch.Shape()[1:]
	out := tensor.New(shape...)
	copy(out.Data(), batch.Data()[i*sample:(i+1)*sample])
	return out
}

// requireSameBits fails unless sample i of batch is bit-identical to want.
func requireSameBits(t *testing.T, op string, batch *tensor.Tensor, i int, want *tensor.Tensor) {
	t.Helper()
	n := batch.Dim(0)
	sample := batch.Len() / n
	got := batch.Data()[i*sample : (i+1)*sample]
	if sample != want.Len() {
		t.Fatalf("%s: sample %d has %d elements, want %d", op, i, sample, want.Len())
	}
	for j, v := range got {
		if math.Float32bits(v) != math.Float32bits(want.Data()[j]) {
			t.Fatalf("%s: sample %d element %d: batch %x single %x",
				op, i, j, math.Float32bits(v), math.Float32bits(want.Data()[j]))
		}
	}
}

func randBatch(r *tensor.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillUniform(r, -1, 1)
	return t
}

func TestConv2DBatchMatchesSingle(t *testing.T) {
	r := tensor.NewRNG(11)
	cases := []struct {
		name string
		p    ConvParams
		n    int
		inH  int
		inW  int
	}{
		{"3x3 pad1", ConvParams{InChannels: 3, OutChannels: 8, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 4, 9, 9},
		{"5x5 stride2 grouped", ConvParams{InChannels: 4, OutChannels: 8, KernelH: 5, KernelW: 5, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2, Groups: 2}, 3, 13, 11},
		{"1x1", ConvParams{InChannels: 6, OutChannels: 10, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}, 5, 7, 7},
		{"4x4 stride3 nopad", ConvParams{InChannels: 2, OutChannels: 7, KernelH: 4, KernelW: 4, StrideH: 3, StrideW: 3}, 2, 14, 17},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := randBatch(r, c.p.WeightCount())
			b := randBatch(r, c.p.OutChannels)
			in := randBatch(r, c.n, c.p.InChannels, c.inH, c.inW)
			s := NewScratch()
			out, err := s.Conv2DPacked(in, w, b, c.p, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.n; i++ {
				single, err := NewScratch().Conv2DPacked(sampleOf(t, in, i), w, b, c.p, nil)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, c.name, out, i, single)
			}
		})
	}
}

func TestFullyConnectedBatchMatchesSingle(t *testing.T) {
	r := tensor.NewRNG(12)
	for _, n := range []int{1, 3, 8, 9} {
		inF, outF := 37, 21
		w := randBatch(r, outF*inF)
		b := randBatch(r, outF)
		in := randBatch(r, n, inF)
		out, err := NewScratch().FullyConnectedPacked(in, w, b, outF, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			single, err := NewScratch().FullyConnectedPacked(sampleOf(t, in, i), w, b, outF, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "fc", out, i, single)
		}
	}
}

// TestFullyConnectedOneSampleRunsMatVec pins the FC op's kernel choice, made
// from the pack and the sample count alone: one sample, alone (rank 1) or as
// a batch of one (rank 2), runs its pack's mat-vec bit for bit —
// MatVecBiasParallel with no pack, MatVecFastParallel with float panels, or
// MatVecInt8 over the sample quantized by QuantizeU8 with int8 panels — and
// stages nothing beyond the mat-vec's own buffer; two and seven samples run
// its GEMM bit for bit — GemmNNParallel, GemmNNFastParallel over columns
// padded to 16, or GemmInt8 — on every rung and at 1 and 3 workers.
func TestFullyConnectedOneSampleRunsMatVec(t *testing.T) {
	r := tensor.NewRNG(18)
	const inF, outF = 300, 45
	w, b, x := randBatch(r, outF*inF), randBatch(r, outF), randBatch(r, inF)
	one, err := tensor.FromSlice(x.Data(), 1, inF)
	if err != nil {
		t.Fatal(err)
	}
	batches := []*tensor.Tensor{randBatch(r, 2, inF), randBatch(r, 7, inF)}
	forFastTiers(func(tier tensor.SIMDTier) {
		for _, mode := range []Numerics{NumericsReference, NumericsFast, NumericsInt8} {
			pk := PackFC(w, outF, inF, mode)
			for _, workers := range []int{1, 3} {
				tm := team(workers)
				want := tensor.New(outF)
				var staged int64 // the mat-vec's staging: the quantized sample
				switch mode {
				case NumericsReference:
					tensor.MatVecBiasParallel(want.Data(), w.Data(), x.Data(), b.Data(), outF, inF, tm)
				case NumericsFast:
					tensor.MatVecFastParallel(want.Data(), w.Data(), x.Data(), b.Data(), outF, inF, tm)
				default:
					xq := make([]uint8, pk.q[0].KPad())
					xs := tensor.QuantizeU8(xq[:inF], x.Data())
					tensor.MatVecInt8(want.Data(), pk.q[0], xq, b.Data(), xs, tm)
					staged = int64(len(xq))
				}
				s := NewScratch()
				s.SetWorkers(workers)
				for _, in := range []*tensor.Tensor{x, one} {
					got, err := s.FullyConnectedPacked(in, w, b, outF, pk)
					if err != nil {
						t.Fatal(err)
					}
					if got.Rank() != in.Rank() {
						t.Fatalf("%v/%v/w%d: rank-%d input gave a rank-%d output", tier, mode, workers, in.Rank(), got.Rank())
					}
					for i, v := range want.Data() {
						if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
							t.Fatalf("%v/%v/w%d/rank%d: element %d = %x, mat-vec %x", tier, mode, workers, in.Rank(),
								i, math.Float32bits(got.Data()[i]), math.Float32bits(v))
						}
					}
				}
				// The reference GEMM equals the mat-vec bit for bit, so only
				// the staging tells them apart: a GEMM transposes the sample
				// into column buffers the mat-vec never touches.
				if got := s.Bytes() - s.ArenaBytes(); got != staged {
					t.Fatalf("%v/%v/w%d: one sample staged %d bytes beyond the arena, the mat-vec stages %d",
						tier, mode, workers, got, staged)
				}
				for _, in := range batches {
					got, err := s.FullyConnectedPacked(in, w, b, outF, pk)
					if err != nil {
						t.Fatal(err)
					}
					want := fcGemmOracle(in, w, b, pk, outF, tm)
					for i := 0; i < in.Dim(0); i++ {
						requireSameBits(t, fmt.Sprintf("%v/%v/w%d/n%d GEMM", tier, mode, workers, in.Dim(0)), got, i, sampleOf(t, want, i))
					}
				}
			}
		}
	})
}

// fcGemmOracle is the FC layer over a batch written as its pack's GEMM on
// the (inF x N) transposed batch: GemmNNParallel with no pack,
// GemmNNFastParallel with float panels over columns padded to 16, or
// GemmInt8 with int8 panels.  It returns (N, outF).
func fcGemmOracle(in, w, b *tensor.Tensor, pk *Pack, outF int, tm *tensor.Team) *tensor.Tensor {
	n := in.Dim(0)
	inF, ld := in.Len()/n, n
	if pk != nil && pk.f != nil {
		ld = (n + 15) &^ 15
	}
	xT, yT := make([]float32, inF*ld), make([]float32, outF*ld)
	for i := 0; i < n; i++ {
		for f := 0; f < inF; f++ {
			xT[f*ld+i] = in.Data()[i*inF+f]
		}
	}
	switch {
	case pk == nil:
		tensor.GemmNNParallel(yT, w.Data(), xT, b.Data(), outF, n, inF, n, tm)
	case pk.f != nil:
		tensor.GemmNNFastParallel(yT, pk.f[0], xT, b.Data(), ld, ld, tm)
	default:
		kPad := pk.q[0].KPad()
		bp := make([]uint8, tensor.Int8PackedLen(kPad, n))
		acc := make([]int32, tensor.Int8AccLen(outF, n))
		tensor.GemmInt8(yT, pk.q[0], bp, acc, b.Data(), tensor.PackColsU8(bp, xT, inF, n, n, kPad), n, tm)
	}
	out := tensor.New(n, outF)
	for i := 0; i < n; i++ {
		for o := 0; o < outF; o++ {
			out.Data()[i*outF+o] = yT[o*ld+i]
		}
	}
	return out
}

func TestElementwiseBatchOpsMatchSingle(t *testing.T) {
	r := tensor.NewRNG(13)
	const n, c, h, w = 3, 6, 5, 7
	in := randBatch(r, n, c, h, w)
	s := NewScratch()

	t.Run("pool", func(t *testing.T) {
		for _, p := range []PoolParams{
			{Kind: MaxPool, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, CeilMode: true},
			{Kind: AvgPool, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		} {
			out, err := s.Pool2D(in, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				single, err := NewScratch().Pool2D(sampleOf(t, in, i), p)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, "pool", out, i, single)
			}
		}
	})
	t.Run("lrn", func(t *testing.T) {
		p := DefaultLRN()
		out, err := s.LRN(in, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			single, err := NewScratch().LRN(sampleOf(t, in, i), p)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "lrn", out, i, single)
		}
	})
	t.Run("batchnorm+scale", func(t *testing.T) {
		mean := randBatch(r, c)
		variance := tensor.New(c)
		variance.FillUniform(r, 0.1, 2)
		p := BatchNormParams{Mean: mean, Variance: variance}
		out, err := s.BatchNorm(in, p)
		if err != nil {
			t.Fatal(err)
		}
		gamma := randBatch(r, c)
		beta := randBatch(r, c)
		scaled, err := s.Scale(out, gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			bn, err := NewScratch().BatchNorm(sampleOf(t, in, i), p)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "batchnorm", out, i, bn)
			sc, err := NewScratch().Scale(bn, gamma, beta)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "scale", scaled, i, sc)
		}
	})
	t.Run("relu+eltwise+concat+globalpool", func(t *testing.T) {
		other := randBatch(r, n, c, h, w)
		relu, err := s.ReLU(in)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.EltwiseAdd(in, other)
		if err != nil {
			t.Fatal(err)
		}
		cat, err := s.ConcatChannels(in, other)
		if err != nil {
			t.Fatal(err)
		}
		gap, err := s.GlobalAvgPool(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			si, so := sampleOf(t, in, i), sampleOf(t, other, i)
			rs, err := NewScratch().ReLU(si)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "relu", relu, i, rs)
			es, err := EltwiseAdd(si, so)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "eltwise", sum, i, es)
			cs, err := NewScratch().ConcatChannels(si, so)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "concat", cat, i, cs)
			gs, err := NewScratch().GlobalAvgPool(si)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "globalpool", gap, i, gs)
		}
	})
	t.Run("softmax", func(t *testing.T) {
		vec := randBatch(r, n, 9)
		out, err := s.Softmax(vec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			single, err := NewScratch().Softmax(sampleOf(t, vec, i))
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "softmax", out, i, single)
		}
	})
}

// recurrentOps are the two recurrent ops over fixed weights and an optional
// pack, by name.
func recurrentOps(lw *LSTMWeights, gw *GRUWeights, lp, gp *Pack) map[string]func(*Scratch, *tensor.Tensor) (*tensor.Tensor, error) {
	return map[string]func(*Scratch, *tensor.Tensor) (*tensor.Tensor, error){
		"lstm": func(s *Scratch, seq *tensor.Tensor) (*tensor.Tensor, error) { return s.LSTM(seq, lw, lp) },
		"gru":  func(s *Scratch, seq *tensor.Tensor) (*tensor.Tensor, error) { return s.GRU(seq, gw, gp) },
	}
}

// sequenceOf copies sequence i of a (steps, n, in) batch into a (steps, in)
// sequence.
func sequenceOf(batch *tensor.Tensor, i int) *tensor.Tensor {
	steps, n, in := batch.Dim(0), batch.Dim(1), batch.Dim(2)
	out := tensor.New(steps, in)
	for t := 0; t < steps; t++ {
		copy(out.Data()[t*in:(t+1)*in], batch.Data()[(t*n+i)*in:(t*n+i+1)*in])
	}
	return out
}

// TestRecurrentSeqBatchMatchesSingle: on the reference tier every sequence of
// a recurrent batch — the gates on the GEMM — is bit-identical to the op run
// on that sequence alone — the gates on the mat-vec — serial and parallel,
// and each op answers in kind: (steps, in) gives a hidden vector, (steps, N,
// in) gives (N, hidden).
func TestRecurrentSeqBatchMatchesSingle(t *testing.T) {
	r := tensor.NewRNG(14)
	const hidden, inSize, steps, n = 16, 4, 5, 3
	seq := randBatch(r, steps, n, inSize)
	ops := recurrentOps(makeLSTMWeights(r, hidden, inSize), makeGRUWeights(r, hidden, inSize), nil, nil)
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				s := NewScratch()
				s.SetWorkers(workers)
				out, err := op(s, seq)
				if err != nil {
					t.Fatal(err)
				}
				if out.Rank() != 2 || out.Dim(0) != n || out.Dim(1) != hidden {
					t.Fatalf("batch of %d gave shape %v, want [%d %d]", n, out.Shape(), n, hidden)
				}
				for i := 0; i < n; i++ {
					single, err := op(NewScratch(), sequenceOf(seq, i))
					if err != nil {
						t.Fatal(err)
					}
					if single.Rank() != 1 {
						t.Fatalf("one sequence gave shape %v, want [%d]", single.Shape(), hidden)
					}
					requireSameBits(t, name, out, i, single)
				}
			}
		})
	}
}

// TestBatchCompanionInvariance: from two samples on, a sample's bits do not
// depend on the other samples of its batch.  Sample 0 is the same in [x, y],
// in [x, 8z] and in a batch of seven, for a convolution, a fully-connected
// layer, an LSTM and a GRU on every tier with its pack, on every rung and at
// 1 and 3 workers.  The int8 fully-connected layer is left out: it quantizes
// its activations with one scale per call, so a companion moves sample 0.
func TestBatchCompanionInvariance(t *testing.T) {
	r := tensor.NewRNG(44)
	const inF, outF, hidden, inSize, steps = 50, 19, 12, 5, 3
	cp := ConvParams{InChannels: 4, OutChannels: 6, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1, Groups: 2}
	const h, w = 9, 8
	cw, cb := randBatch(r, cp.WeightCount()), randBatch(r, cp.OutChannels)
	fw, fb := randBatch(r, outF*inF), randBatch(r, outF)
	lw, gw := makeLSTMWeights(r, hidden, inSize), makeGRUWeights(r, hidden, inSize)
	all := []Numerics{NumericsReference, NumericsFast, NumericsInt8}
	for _, c := range []struct {
		name         string
		steps, width int // a sample is steps blocks of width floats; batches are time-major
		shape        func(n int) []int
		modes        []Numerics
		op           func(s *Scratch, in *tensor.Tensor, m Numerics) (*tensor.Tensor, error)
	}{
		{"conv", 1, cp.InChannels * h * w, func(n int) []int { return []int{n, cp.InChannels, h, w} }, all,
			func(s *Scratch, in *tensor.Tensor, m Numerics) (*tensor.Tensor, error) {
				return s.Conv2DPacked(in, cw, cb, cp, PackConv(cw, cp, m))
			}},
		{"fc", 1, inF, func(n int) []int { return []int{n, inF} }, all[:2],
			func(s *Scratch, in *tensor.Tensor, m Numerics) (*tensor.Tensor, error) {
				return s.FullyConnectedPacked(in, fw, fb, outF, PackFC(fw, outF, inF, m))
			}},
		{"lstm", steps, inSize, func(n int) []int { return []int{steps, n, inSize} }, all,
			func(s *Scratch, in *tensor.Tensor, m Numerics) (*tensor.Tensor, error) {
				return s.LSTM(in, lw, PackLSTM(lw, m))
			}},
		{"gru", steps, inSize, func(n int) []int { return []int{steps, n, inSize} }, all,
			func(s *Scratch, in *tensor.Tensor, m Numerics) (*tensor.Tensor, error) {
				return s.GRU(in, gw, PackGRU(gw, m))
			}},
	} {
		sample := func(scale float32) []float32 {
			v := randBatch(r, c.steps*c.width).Data()
			for i := range v {
				v[i] *= scale
			}
			return v
		}
		x := sample(1)
		seven := [][]float32{x}
		for len(seven) < 7 {
			seven = append(seven, sample(1))
		}
		batches := [][][]float32{{x, sample(1)}, {x, sample(8)}, seven}
		stacked := make([]*tensor.Tensor, len(batches))
		for bi, samples := range batches {
			n := len(samples)
			stacked[bi] = tensor.New(c.shape(n)...)
			for st := 0; st < c.steps; st++ {
				for i, v := range samples {
					copy(stacked[bi].Data()[(st*n+i)*c.width:], v[st*c.width:(st+1)*c.width])
				}
			}
		}
		forFastTiers(func(tier tensor.SIMDTier) {
			for _, mode := range c.modes {
				for _, workers := range []int{1, 3} {
					s := NewScratch()
					s.SetNumerics(mode)
					s.SetWorkers(workers)
					var first []float32
					for bi, in := range stacked {
						s.BeginRun()
						out, err := c.op(s, in, mode)
						if err != nil {
							t.Fatal(err)
						}
						got := out.Data()[:out.Len()/len(batches[bi])]
						if first == nil {
							first = append([]float32(nil), got...)
							continue
						}
						for i, v := range got {
							if math.Float32bits(v) != math.Float32bits(first[i]) {
								t.Fatalf("%s %v/%v/w%d: sample 0 of batch %d, element %d = %x, %x in [x, y]",
									c.name, tier, mode, workers, bi, i, math.Float32bits(v), math.Float32bits(first[i]))
							}
						}
					}
				}
			}
		})
	}
}

// gateProduct writes one gate product dst = W*x, W (rows x cols) the cell
// pack's matrix i, over the feature-major x (cols x n).
type gateProduct func(dst []float32, i int, w *tensor.Tensor, x []float32, rows, cols, n int)

// oracleGate is the oracle of gate g's pre-activation over n feature-major
// sequences: (Wx*x + Uh*h) + b, both products on prod.
func oracleGate(prod gateProduct, g int, wx, uh, b *tensor.Tensor, x, h []float32, n int) []float32 {
	hidden := len(h) / n
	pre, tmp := make([]float32, len(h)), make([]float32, len(h))
	prod(pre, 2*g, wx, x, hidden, len(x)/n, n)
	prod(tmp, 2*g+1, uh, h, hidden, hidden, n)
	for i := range pre {
		pre[i] = (pre[i] + tmp[i]) + b.Data()[i/n]
	}
	return pre
}

// stepColumns returns step t of a time-major (steps, n, in) batch as the
// feature-major (in x n) block.
func stepColumns(seq *tensor.Tensor, t int) []float32 {
	n, in := seq.Dim(1), seq.Dim(2)
	x := make([]float32, in*n)
	for i := 0; i < n; i++ {
		for f := 0; f < in; f++ {
			x[f*n+i] = seq.Data()[(t*n+i)*in+f]
		}
	}
	return x
}

// sampleRows turns a feature-major (hidden x n) state into (n, hidden).
func sampleRows(h []float32, n int) *tensor.Tensor {
	hidden := len(h) / n
	out := tensor.New(n, hidden)
	for i := 0; i < n; i++ {
		for j := 0; j < hidden; j++ {
			out.Data()[i*hidden+j] = h[j*n+i]
		}
	}
	return out
}

// oracleLSTM and oracleGRU step a (steps, n, in) batch through the cell
// equations with every gate product on prod, answering (n, hidden): the
// oracles of the recurrent ops' kernels.
func oracleLSTM(prod gateProduct, w *LSTMWeights, seq *tensor.Tensor) *tensor.Tensor {
	n := seq.Dim(1)
	h, c := make([]float32, w.Hidden*n), make([]float32, w.Hidden*n)
	for t := 0; t < seq.Dim(0); t++ {
		x := stepColumns(seq, t)
		i, f := oracleGate(prod, 0, w.Wi, w.Ui, w.Bi, x, h, n), oracleGate(prod, 1, w.Wf, w.Uf, w.Bf, x, h, n)
		o, g := oracleGate(prod, 2, w.Wo, w.Uo, w.Bo, x, h, n), oracleGate(prod, 3, w.Wc, w.Uc, w.Bc, x, h, n)
		sigmoidInPlace(i)
		sigmoidInPlace(f)
		sigmoidInPlace(o)
		tanhInPlace(g)
		for j := range c {
			fc := f[j] * c[j]
			ig := i[j] * g[j]
			c[j] = fc + ig
			h[j] = o[j] * float32(math.Tanh(float64(c[j])))
		}
	}
	return sampleRows(h, n)
}

func oracleGRU(prod gateProduct, w *GRUWeights, seq *tensor.Tensor) *tensor.Tensor {
	n := seq.Dim(1)
	h, rh := make([]float32, w.Hidden*n), make([]float32, w.Hidden*n)
	for t := 0; t < seq.Dim(0); t++ {
		x := stepColumns(seq, t)
		r, z := oracleGate(prod, 0, w.Wr, w.Ur, w.Br, x, h, n), oracleGate(prod, 1, w.Wz, w.Uz, w.Bz, x, h, n)
		sigmoidInPlace(r)
		sigmoidInPlace(z)
		for j := range rh {
			rh[j] = r[j] * h[j]
		}
		ng := oracleGate(prod, 2, w.Wh, w.Uh, w.Bh, x, rh, n)
		tanhInPlace(ng)
		for j, zj := range z {
			h[j] = (1-zj)*ng[j] + zj*h[j]
		}
	}
	return sampleRows(h, n)
}

// TestRecurrentOneSequenceRunsMatVec pins the recurrent ops' kernel choice,
// made from the cell's pack and the sequence count alone: one sequence,
// alone (rank 2) or as a batch of one (rank 3), runs every gate on its
// pack's mat-vec bit for bit — MatVecBiasParallel with no pack,
// MatVecFastParallel with the float panels of either fast tier's pack — and
// stages only the step's gate buffers and the LSTM's cell state: no
// transposed input or state; two, seven and seventeen sequences run every
// gate on its pack's GEMM bit for bit — GemmNNParallel, or
// GemmNNFastParallel on the panels — on every rung and at 1 and 3 workers.
func TestRecurrentOneSequenceRunsMatVec(t *testing.T) {
	r := tensor.NewRNG(19)
	const hidden, inSize, steps = 40, 3, 4
	lw, gw := makeLSTMWeights(r, hidden, inSize), makeGRUWeights(r, hidden, inSize)
	seq := randBatch(r, steps, inSize)
	one, err := tensor.FromSlice(seq.Data(), steps, 1, inSize)
	if err != nil {
		t.Fatal(err)
	}
	// Below 16 columns the fast GEMM runs its scalar column tail, whose
	// order is the reference one; 17 sequences reach its vector tile.
	batches := []*tensor.Tensor{randBatch(r, steps, 2, inSize), randBatch(r, steps, 7, inSize), randBatch(r, steps, 17, inSize)}
	staged := map[string]int64{"lstm": 6 * hidden * 4, "gru": 5 * hidden * 4}
	forFastTiers(func(tier tensor.SIMDTier) {
		for _, mode := range []Numerics{NumericsReference, NumericsFast, NumericsInt8} {
			lp, gp := PackLSTM(lw, mode), PackGRU(gw, mode)
			for _, workers := range []int{1, 3} {
				tm := team(workers)
				prod := func(pk *Pack) gateProduct {
					return func(dst []float32, i int, w *tensor.Tensor, x []float32, rows, cols, n int) {
						switch {
						case pk == nil && n == 1:
							tensor.MatVecBiasParallel(dst, w.Data(), x, nil, rows, cols, tm)
						case pk == nil:
							tensor.GemmNNParallel(dst, w.Data(), x, nil, rows, n, cols, n, tm)
						case n == 1:
							tensor.MatVecFastParallel(dst, w.Data(), x, nil, rows, cols, tm)
						default:
							tensor.GemmNNFastParallel(dst, pk.f[i], x, nil, n, n, tm)
						}
					}
				}
				oracles := map[string]func(*tensor.Tensor) *tensor.Tensor{
					"lstm": func(seq *tensor.Tensor) *tensor.Tensor { return oracleLSTM(prod(lp), lw, seq) },
					"gru":  func(seq *tensor.Tensor) *tensor.Tensor { return oracleGRU(prod(gp), gw, seq) },
				}
				for name, op := range recurrentOps(lw, gw, lp, gp) {
					s := NewScratch()
					s.SetWorkers(workers)
					want := oracles[name](one)
					for _, in := range []*tensor.Tensor{seq, one} {
						got, err := op(s, in)
						if err != nil {
							t.Fatal(err)
						}
						for i, v := range want.Data() {
							if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
								t.Fatalf("%s %v/%v/w%d/rank%d: element %d = %x, mat-vec %x", name, tier, mode, workers,
									in.Rank(), i, math.Float32bits(got.Data()[i]), math.Float32bits(v))
							}
						}
					}
					if got := s.Bytes() - s.ArenaBytes(); got != staged[name] {
						t.Fatalf("%s %v/%v/w%d: one sequence staged %d bytes beyond the arena, the mat-vec step stages %d",
							name, tier, mode, workers, got, staged[name])
					}
					for _, in := range batches {
						got, err := op(s, in)
						if err != nil {
							t.Fatal(err)
						}
						want := oracles[name](in)
						for i := 0; i < in.Dim(1); i++ {
							requireSameBits(t, fmt.Sprintf("%s %v/%v/w%d/n%d GEMM", name, tier, mode, workers, in.Dim(1)), got, i, sampleOf(t, want, i))
						}
					}
				}
			}
		}
	})
}

func makeLSTMWeights(r *tensor.RNG, hidden, in int) *LSTMWeights {
	mk := func(n int) *tensor.Tensor { return randBatch(r, n) }
	return &LSTMWeights{
		Hidden: hidden, Input: in,
		Wi: mk(hidden * in), Wf: mk(hidden * in), Wo: mk(hidden * in), Wc: mk(hidden * in),
		Ui: mk(hidden * hidden), Uf: mk(hidden * hidden), Uo: mk(hidden * hidden), Uc: mk(hidden * hidden),
		Bi: mk(hidden), Bf: mk(hidden), Bo: mk(hidden), Bc: mk(hidden),
	}
}

func makeGRUWeights(r *tensor.RNG, hidden, in int) *GRUWeights {
	mk := func(n int) *tensor.Tensor { return randBatch(r, n) }
	return &GRUWeights{
		Hidden: hidden, Input: in,
		Wr: mk(hidden * in), Wz: mk(hidden * in), Wh: mk(hidden * in),
		Ur: mk(hidden * hidden), Uz: mk(hidden * hidden), Uh: mk(hidden * hidden),
		Br: mk(hidden), Bz: mk(hidden), Bh: mk(hidden),
	}
}

func TestBatchOpErrors(t *testing.T) {
	s := NewScratch()
	p := ConvParams{InChannels: 3, OutChannels: 4, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}
	w := tensor.New(p.WeightCount())
	if _, err := s.Conv2DPacked(nil, w, nil, p, nil); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("nil input: got %v, want ErrShape", err)
	}
	if _, err := s.Conv2DPacked(tensor.New(3, 64), w, nil, p, nil); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("rank-2 conv input: got %v, want ErrShape", err)
	}
	if _, err := s.Conv2DPacked(tensor.New(2, 5, 8, 8), w, nil, p, nil); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("channel mismatch: got %v, want ErrShape", err)
	}
	if _, err := s.FullyConnectedPacked(tensor.New(2, 4), w, nil, 4, nil); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("fc batch of 4-feature samples against 27-feature weights: got %v, want ErrShape", err)
	}
	if _, err := s.ConcatChannels(tensor.New(1, 2, 2), tensor.New(1, 1, 2, 2)); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("concat of a sample and a batch: got %v, want ErrShape", err)
	}
	// A recurrent operand is one (steps, in) sequence or a (steps, N, in)
	// batch: a rank-2 (steps, N*in) block is not read as a batch, nor a
	// rank-3 batch of the wrong width as a sequence.
	r := tensor.NewRNG(15)
	for name, op := range recurrentOps(makeLSTMWeights(r, 4, 2), makeGRUWeights(r, 4, 2), nil, nil) {
		for _, seq := range []*tensor.Tensor{
			nil, tensor.New(2), tensor.New(3, 2*2), tensor.New(3, 2, 4), tensor.New(3, 1, 2, 2),
		} {
			if _, err := op(s, seq); !errors.Is(err, tensor.ErrShape) {
				t.Fatalf("%s over shape %v: got %v, want ErrShape", name, shapeOf(seq), err)
			}
		}
	}
	if _, err := s.LSTM(tensor.New(2, 2), nil, nil); err == nil {
		t.Fatal("lstm with nil weights must fail")
	}
	if _, err := s.GRU(tensor.New(2, 2), nil, nil); err == nil {
		t.Fatal("gru with nil weights must fail")
	}
}

// team returns an n-worker Team for the parallel kernels.
func team(n int) *tensor.Team { return &tensor.Team{Team: par.NewTeam(n)} }
