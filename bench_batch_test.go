// Batched-throughput benchmarks: images/sec of ClassifyBatch at several
// batch sizes versus sequential single-sample Classify.  Local instruments
// only: nothing compares their numbers (see "Performance gate" in the
// README for the one procedure that does).
package tango_test

import (
	"testing"

	"tango"
)

// benchmarkClassifyBatch measures one batched classification pass of size n
// and reports throughput in images/sec.
func benchmarkClassifyBatch(b *testing.B, name string, n int) {
	bm, err := tango.LoadBenchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	images := make([][]float32, n)
	for i := range images {
		img, _, err := bm.SampleImage(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		images[i] = img
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.ClassifyBatch(images); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "images/sec")
}

// benchmarkClassifySequential is the batched benchmarks' baseline: the same
// n images pushed one at a time through the single-sample path.
func benchmarkClassifySequential(b *testing.B, name string, n int) {
	bm, err := tango.LoadBenchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	images := make([][]float32, n)
	for i := range images {
		img, _, err := bm.SampleImage(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		images[i] = img
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, img := range images {
			if _, err := bm.Classify(img); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "images/sec")
}

func BenchmarkClassifyAlexNetBatch1(b *testing.B) { benchmarkClassifyBatch(b, "AlexNet", 1) }
func BenchmarkClassifyAlexNetBatch4(b *testing.B) { benchmarkClassifyBatch(b, "AlexNet", 4) }
func BenchmarkClassifyAlexNetBatch8(b *testing.B) { benchmarkClassifyBatch(b, "AlexNet", 8) }

// BenchmarkClassifyAlexNetSequential8 is the explicit baseline for
// BenchmarkClassifyAlexNetBatch8: eight sequential single-sample Classify
// calls on one thread.
func BenchmarkClassifyAlexNetSequential8(b *testing.B) { benchmarkClassifySequential(b, "AlexNet", 8) }

func BenchmarkClassifyCifarNetBatch8(b *testing.B)  { benchmarkClassifyBatch(b, "CifarNet", 8) }
func BenchmarkClassifyCifarNetBatch32(b *testing.B) { benchmarkClassifyBatch(b, "CifarNet", 32) }

// BenchmarkForecastLSTMBatch32 tracks batched RNN throughput.
func BenchmarkForecastLSTMBatch32(b *testing.B) {
	bm, err := tango.LoadBenchmark("LSTM")
	if err != nil {
		b.Fatal(err)
	}
	const n = 32
	histories := make([][]float64, n)
	for i := range histories {
		h, err := bm.SampleHistory(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		histories[i] = h
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.ForecastBatch(histories); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "forecasts/sec")
}
