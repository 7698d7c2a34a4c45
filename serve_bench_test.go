package tango_test

import (
	"context"
	"testing"
	"time"

	"tango"
)

// BenchmarkServeThroughput measures the dynamic-batching server under
// closed-loop in-process clients: each RunParallel worker submits its next
// request as soon as the previous one returns, so concurrent requests
// coalesce into batched engine runs.  Compare ns/op against
// BenchmarkInferenceCifarNet (one sequential Classify per op) to see what
// the batching layer buys under load.
func BenchmarkServeThroughput(b *testing.B) {
	srv, err := tango.NewServer([]string{"CifarNet"}, tango.ServerConfig{
		MaxBatch:   16,
		MaxDelay:   200 * time.Microsecond,
		QueueDepth: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	bench, err := tango.LoadBenchmark("CifarNet")
	if err != nil {
		b.Fatal(err)
	}
	img, _, err := bench.SampleImage(1)
	if err != nil {
		b.Fatal(err)
	}

	// 8 concurrent clients per proc: enough in-flight requests for batches
	// to form even on a single-CPU runner.
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		for pb.Next() {
			if _, err := srv.Classify(ctx, "CifarNet", img); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := srv.Stats()
	if st.Batches > 0 {
		b.ReportMetric(st.MeanBatchSize, "batchsize/mean")
	}
}
