// Fast-numerics tier benchmarks: single-sample and batched AlexNet
// classification under WithFastMath / WithInt8.  Local instruments only:
// nothing compares their numbers.
package tango_test

import (
	"testing"

	"tango"
)

// benchmarkClassifyOpts measures single-sample classification under the
// given inference options and reports throughput in images/sec.
func benchmarkClassifyOpts(b *testing.B, name string, opts ...tango.SimOption) {
	bm, err := tango.LoadBenchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	img, _, err := bm.SampleImage(1)
	if err != nil {
		b.Fatal(err)
	}
	// Warm outside the timed region: the first fast-tier run packs the
	// weight panels (a one-time per-plan cost).
	if _, err := bm.Classify(img, opts...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.Classify(img, opts...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "images/sec")
}

func BenchmarkClassifyAlexNetReference(b *testing.B) {
	benchmarkClassifyOpts(b, "AlexNet")
}

func BenchmarkClassifyAlexNetFastMath(b *testing.B) {
	benchmarkClassifyOpts(b, "AlexNet", tango.WithFastMath())
}

func BenchmarkClassifyAlexNetInt8(b *testing.B) {
	benchmarkClassifyOpts(b, "AlexNet", tango.WithInt8())
}

// alexNetBatch8 loads AlexNet and synthesizes the 8-image batch of the
// batched fast-tier benchmarks.
func alexNetBatch8(b *testing.B) (*tango.Benchmark, [][]float32) {
	b.Helper()
	bm, err := tango.LoadBenchmark("AlexNet")
	if err != nil {
		b.Fatal(err)
	}
	images := make([][]float32, 8)
	for i := range images {
		img, _, err := bm.SampleImage(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		images[i] = img
	}
	return bm, images
}

// benchmarkClassifyBatch8 measures batched classification under the given
// inference options; the fused staging path makes this the fast tier's
// highest-throughput entry point.
func benchmarkClassifyBatch8(b *testing.B, opts ...tango.SimOption) {
	bm, images := alexNetBatch8(b)
	if _, err := bm.ClassifyBatch(images, opts...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.ClassifyBatch(images, opts...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(images))*float64(b.N)/b.Elapsed().Seconds(), "images/sec")
}

// BenchmarkClassifyAlexNetBatch8FastMath is the fast-tier counterpart of
// BenchmarkClassifyAlexNetBatch8.
func BenchmarkClassifyAlexNetBatch8FastMath(b *testing.B) {
	benchmarkClassifyBatch8(b, tango.WithFastMath())
}

// BenchmarkClassifyAlexNetBatch8Int8 measures the fused batched int8 tier
// (per-image activation scales, per-panel quantization).
func BenchmarkClassifyAlexNetBatch8Int8(b *testing.B) {
	benchmarkClassifyBatch8(b, tango.WithInt8())
}
