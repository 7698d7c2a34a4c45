package nn

import (
	"testing"

	"tango/internal/tensor"
)

// Staging benchmarks for the fused batched convolution work: the staged
// im2col lowering the fused path eliminates, serial and parallel, on the
// AlexNet conv2 batch-8 geometry (one group: 48 input channels, 5x5 taps,
// 27x27 output) — the same shape as the GEMM micro-benchmarks in
// internal/tensor, so staging cost reads directly against GEMM cost.

func im2colBenchGeometry() (p ConvParams, in []float32, nImg, inH, inW, outH, outW int) {
	p = ConvParams{
		InChannels: 48, OutChannels: 128,
		KernelH: 5, KernelW: 5,
		StrideH: 1, StrideW: 1,
		PadH: 2, PadW: 2,
	}
	nImg, inH, inW, outH, outW = 8, 27, 27, 27, 27
	t := tensor.New(nImg * p.InChannels * inH * inW)
	t.FillUniform(tensor.NewRNG(7), 0, 1)
	in = t.Data()
	return
}

func benchmarkIm2colStage(b *testing.B, workers int) {
	p, in, nImg, inH, inW, outH, outW := im2colBenchGeometry()
	k := p.InChannels * p.KernelH * p.KernelW
	colT := make([]float32, k*nImg*outH*outW)
	sampleStride := p.InChannels * inH * inW
	b.ReportAllocs()
	b.SetBytes(int64(len(colT)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im2colTBatchPar(colT, in, nImg, sampleStride, inH, inW, 0, p.InChannels, p, outH, outW, workers)
	}
}

// BenchmarkIm2colStage measures the staged batched im2col lowering — the
// buffer fill the fused path never performs (it streams the same values in
// FusedKC x FusedNC panels instead).
func BenchmarkIm2colStage(b *testing.B)     { benchmarkIm2colStage(b, 1) }
func BenchmarkIm2colStagePar4(b *testing.B) { benchmarkIm2colStage(b, 4) }

// BenchmarkLRNFast times the fast tiers' LRN on AlexNet's two LRN shapes, one
// sub-benchmark per SIMD rung the host can force.
func BenchmarkLRNFast(b *testing.B) {
	for _, s := range []struct {
		name    string
		c, h, w int
	}{{"norm1_96x55x55", 96, 55, 55}, {"norm2_256x27x27", 256, 27, 27}} {
		in := tensor.New(s.c * s.h * s.w)
		in.FillUniform(tensor.NewRNG(11), 0, 8)
		out := make([]float32, in.Len())
		sums := make([]float64, s.h*s.w)
		forFastTiers(func(tier tensor.SIMDTier) {
			b.Run(s.name+"/"+tier.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					lrnCoreFast(out, in.Data(), s.c, s.h, s.w, DefaultLRN(), sums)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.Len()), "ns/elem")
			})
		})
	}
}
