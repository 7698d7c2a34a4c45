package tango_test

import (
	"fmt"
	"strings"
	"testing"

	"tango"
)

// TestClassifyBatchMatchesSingle verifies the public batched API against the
// single-sample path: every probability must be bit-identical and every
// predicted class equal, serial and parallel.
func TestClassifyBatchMatchesSingle(t *testing.T) {
	b, err := tango.LoadBenchmark("CifarNet")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	images := make([][]float32, n)
	singles := make([]*tango.Classification, n)
	for i := range images {
		img, _, err := b.SampleImage(uint64(100 + i))
		if err != nil {
			t.Fatal(err)
		}
		images[i] = img
		singles[i], err = b.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		got, err := b.ClassifyBatch(images, tango.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), n)
		}
		for i, g := range got {
			if g.Class != singles[i].Class {
				t.Fatalf("workers=%d sample %d: class %d, want %d", workers, i, g.Class, singles[i].Class)
			}
			sameProbs(t, fmt.Sprintf("workers=%d sample %d", workers, i),
				g.Probabilities, singles[i].Probabilities)
		}
	}
}

// TestForecastBatchMatchesSingle verifies batched RNN forecasting against
// per-history Forecast calls on both recurrent benchmarks.
func TestForecastBatchMatchesSingle(t *testing.T) {
	for _, name := range []string{"LSTM", "GRU"} {
		b, err := tango.LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		const n = 4
		histories := make([][]float64, n)
		want := make([]float64, n)
		for i := range histories {
			h, err := b.SampleHistory(uint64(7 + i))
			if err != nil {
				t.Fatal(err)
			}
			histories[i] = h
			want[i], err = b.Forecast(h)
			if err != nil {
				t.Fatal(err)
			}
		}
		got, err := b.ForecastBatch(histories)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			sameForecast(t, fmt.Sprintf("%s history %d", name, i), got[i], want[i])
		}
	}
}

// TestBatchAPIEdgeCases is the table-driven edge-case sweep for the batched
// public API: batch of one matches the single path exactly, empty batches
// and ragged or misshapen inputs are rejected with descriptive errors.
func TestBatchAPIEdgeCases(t *testing.T) {
	cnn, err := tango.LoadBenchmark("CifarNet")
	if err != nil {
		t.Fatal(err)
	}
	rnn, err := tango.LoadBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := cnn.SampleImage(3)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := rnn.SampleHistory(3)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("batch-of-one-matches-single", func(t *testing.T) {
		single, err := cnn.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := cnn.ClassifyBatch([][]float32{img})
		if err != nil {
			t.Fatal(err)
		}
		if batch[0].Class != single.Class {
			t.Fatalf("class %d, want %d", batch[0].Class, single.Class)
		}
		sameProbs(t, "batch of one", batch[0].Probabilities, single.Probabilities)
		fSingle, err := rnn.Forecast(hist)
		if err != nil {
			t.Fatal(err)
		}
		fBatch, err := rnn.ForecastBatch([][]float64{hist})
		if err != nil {
			t.Fatal(err)
		}
		sameForecast(t, "forecast batch of one", fBatch[0], fSingle)
	})

	errCases := []struct {
		name    string
		call    func() error
		errPart string
	}{
		{"empty classify batch", func() error {
			_, err := cnn.ClassifyBatch(nil)
			return err
		}, "empty batch"},
		{"empty forecast batch", func() error {
			_, err := rnn.ForecastBatch([][]float64{})
			return err
		}, "empty batch"},
		{"short image", func() error {
			_, err := cnn.ClassifyBatch([][]float32{img, img[:10]})
			return err
		}, "image 1"},
		{"long image", func() error {
			_, err := cnn.ClassifyBatch([][]float32{append(append([]float32{}, img...), 1)})
			return err
		}, "image 0"},
		{"ragged histories", func() error {
			_, err := rnn.ForecastBatch([][]float64{hist, hist[:1]})
			return err
		}, "ragged"},
		{"empty first history", func() error {
			_, err := rnn.ForecastBatch([][]float64{{}, hist})
			return err
		}, "empty"},
		{"classify batch on RNN", func() error {
			_, err := rnn.ClassifyBatch([][]float32{img})
			return err
		}, "ClassifyBatch"},
		{"forecast batch on CNN", func() error {
			_, err := cnn.ForecastBatch([][]float64{hist})
			return err
		}, "ForecastBatch"},
	}
	for _, c := range errCases {
		t.Run(c.name, func(t *testing.T) {
			err := c.call()
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), c.errPart) {
				t.Fatalf("error %q does not mention %q", err, c.errPart)
			}
		})
	}
}

// TestClassifySampleBatch checks a batch of sample images, image i drawn
// from SampleImage(seed + i), against per-seed ClassifySample calls.
func TestClassifySampleBatch(t *testing.T) {
	b, err := tango.LoadBenchmark("CifarNet")
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	images := make([][]float32, n)
	for i := range images {
		if images[i], _, err = b.SampleImage(50 + uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.ClassifyBatch(images)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		single, err := b.ClassifySample(50 + uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Class != single.Class {
			t.Fatalf("sample %d: class %d, want %d", i, got[i].Class, single.Class)
		}
		sameProbs(t, fmt.Sprintf("sample %d", i), got[i].Probabilities, single.Probabilities)
	}
}
