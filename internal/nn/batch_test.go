package nn

import (
	"errors"
	"math"
	"testing"

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
			out, err := s.Conv2DBatch(in, w, b, c.p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.n; i++ {
				single, err := NewScratch().Conv2D(sampleOf(t, in, i), w, b, c.p)
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
		out, err := NewScratch().FullyConnectedBatch(in, w, b, outF)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			single, err := NewScratch().FullyConnected(sampleOf(t, in, i), w, b, outF)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "fc", out, i, single)
		}
	}
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
			out, err := s.Pool2DBatch(in, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				single, err := Pool2D(sampleOf(t, in, i), p)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, "pool", out, i, single)
			}
		}
	})
	t.Run("lrn", func(t *testing.T) {
		p := DefaultLRN()
		out, err := s.LRNBatch(in, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			single, err := LRN(sampleOf(t, in, i), p)
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
		out, err := s.BatchNormBatch(in, p)
		if err != nil {
			t.Fatal(err)
		}
		gamma := randBatch(r, c)
		beta := randBatch(r, c)
		scaled, err := s.ScaleBatch(out, gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			bn, err := BatchNorm(sampleOf(t, in, i), p)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "batchnorm", out, i, bn)
			sc, err := Scale(bn, gamma, beta)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "scale", scaled, i, sc)
		}
	})
	t.Run("relu+eltwise+concat+globalpool", func(t *testing.T) {
		other := randBatch(r, n, c, h, w)
		relu, err := s.ReLUBatch(in)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.EltwiseAddBatch(in, other)
		if err != nil {
			t.Fatal(err)
		}
		cat, err := s.ConcatChannelsBatch(in, other)
		if err != nil {
			t.Fatal(err)
		}
		gap, err := s.GlobalAvgPoolBatch(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			si, so := sampleOf(t, in, i), sampleOf(t, other, i)
			requireSameBits(t, "relu", relu, i, ReLU(si))
			es, err := EltwiseAdd(si, so)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "eltwise", sum, i, es)
			cs, err := ConcatChannels(si, so)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "concat", cat, i, cs)
			gs, err := GlobalAvgPool(si)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "globalpool", gap, i, gs)
		}
	})
	t.Run("softmax", func(t *testing.T) {
		vec := randBatch(r, n, 9)
		out, err := s.SoftmaxBatch(vec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			single, err := Softmax(sampleOf(t, vec, i))
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "softmax", out, i, single)
		}
	})
}

func TestRecurrentSeqBatchMatchesSingle(t *testing.T) {
	r := tensor.NewRNG(14)
	const hidden, inSize, steps, n = 16, 4, 5, 3
	seq := randBatch(r, steps, n, inSize)

	t.Run("lstm", func(t *testing.T) {
		w := makeLSTMWeights(r, hidden, inSize)
		out, err := NewScratch().LSTMSeqBatchPacked(w, nil, seq.Data(), n, steps)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			s := NewScratch()
			st := LSTMState{H: tensor.New(hidden), C: tensor.New(hidden)}
			for step := 0; step < steps; step++ {
				x := tensor.New(inSize)
				copy(x.Data(), seq.Data()[(step*n+i)*inSize:(step*n+i+1)*inSize])
				if err := s.LSTMStep(w, st, x); err != nil {
					t.Fatal(err)
				}
			}
			requireSameBits(t, "lstm", out, i, st.H)
		}
	})
	t.Run("gru", func(t *testing.T) {
		w := makeGRUWeights(r, hidden, inSize)
		out, err := NewScratch().GRUSeqBatchPacked(w, nil, seq.Data(), n, steps)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			s := NewScratch()
			h := tensor.New(hidden)
			for step := 0; step < steps; step++ {
				x := tensor.New(inSize)
				copy(x.Data(), seq.Data()[(step*n+i)*inSize:(step*n+i+1)*inSize])
				if err := s.GRUStep(w, h, x); err != nil {
					t.Fatal(err)
				}
			}
			requireSameBits(t, "gru", out, i, h)
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
	if _, err := s.Conv2DBatch(nil, w, nil, p); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("nil batch input: got %v, want ErrShape", err)
	}
	if _, err := s.Conv2DBatch(tensor.New(3, 8, 8), w, nil, p); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("rank-3 batch input: got %v, want ErrShape", err)
	}
	if _, err := s.Conv2DBatch(tensor.New(2, 5, 8, 8), w, nil, p); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("channel mismatch: got %v, want ErrShape", err)
	}
	if _, err := s.FullyConnectedBatch(tensor.New(4), w, nil, 4); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("rank-1 fc batch input: got %v, want ErrShape", err)
	}
	lw := &LSTMWeights{Hidden: 4, Input: 2}
	if _, err := s.LSTMSeqBatchPacked(lw, nil, make([]float32, 7), 2, 2); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("bad lstm seq buffer: got %v, want ErrShape", err)
	}
	if _, err := s.GRUSeqBatchPacked(&GRUWeights{Hidden: 4, Input: 2}, nil, nil, 0, 2); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("zero gru batch: got %v, want ErrShape", err)
	}
}
