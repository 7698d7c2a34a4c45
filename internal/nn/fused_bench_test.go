package nn

import (
	"testing"

	"tango/internal/tensor"
)

// BenchmarkLRNReference times the reference tier's LRN on AlexNet's two LRN
// shapes, on one worker, over inputs that are zero where ReLU would make them
// so (about half).
func BenchmarkLRNReference(b *testing.B) {
	for _, s := range []struct {
		name    string
		c, h, w int
	}{{"norm1_96x55x55", 96, 55, 55}, {"norm2_256x27x27", 256, 27, 27}} {
		in := tensor.New(s.c * s.h * s.w)
		in.FillUniform(tensor.NewRNG(11), -8, 8)
		for i, v := range in.Data() {
			in.Data()[i] = max(v, 0)
		}
		out := make([]float32, in.Len())
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lrnCore(out, in.Data(), s.c, s.h*s.w, DefaultLRN(), 0, s.c)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.Len()), "ns/elem")
		})
	}
}

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
					lrnCoreFast(out, in.Data(), s.c, s.h*s.w, DefaultLRN(), sums, 0, s.h*s.w)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.Len()), "ns/elem")
			})
		})
	}
}
