package serve

import (
	"context"
	"testing"

	"tango/internal/core"
)

// fakeLoad loads any RNN as a Model whose forecast is the history's last
// value and whose footprint is 100 bytes, counting the loads it performs.
func fakeLoad(loads map[string]int) func(string) (*Model, error) {
	return func(name string) (*Model, error) {
		loads[name]++
		return &Model{
			ForecastBatch: func(histories [][]float64) ([]float64, error) {
				out := make([]float64, len(histories))
				for i, h := range histories {
					out[i] = h[len(h)-1]
				}
				return out, nil
			},
			SampleHistory: func(seed uint64) ([]float64, error) { return []float64{float64(seed)}, nil },
			MemStats:      func() core.MemStats { return core.MemStats{WeightBytes: 100} },
		}, nil
	}
}

// TestCountersSurviveEviction: a model's counters and histograms live in one
// collector that every engine it loads counts into, so an eviction loses
// nothing and a reload keeps counting; a model that never loaded reports no
// histogram, as before it had a collector.
func TestCountersSurviveEviction(t *testing.T) {
	loads := map[string]int{}
	s, err := NewServer([]string{"GRU", "LSTM"}, Options{
		Batch:            Config{MaxBatch: 4},
		ModelBudgetBytes: 1, // any second resident model evicts the idle one
		Load:             fakeLoad(loads),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats().Benchmarks["GRU"]; st.BatchSizeHist != nil || st.LatencyHist != nil || st.Resident {
		t.Fatalf("cold GRU: %+v", st)
	}
	ctx := context.Background()
	for i, name := range []string{"GRU", "GRU", "LSTM", "GRU"} {
		if got, err := s.Forecast(ctx, name, []float64{1, float64(i)}); err != nil || got != float64(i) {
			t.Fatalf("request %d to %s: %v, %v", i, name, got, err)
		}
	}
	st := s.Stats()
	g, l := st.Benchmarks["GRU"], st.Benchmarks["LSTM"]
	if loads["GRU"] != 2 || g.Loads != 2 || g.Evictions != 1 || !g.Resident {
		t.Fatalf("GRU lifecycle: %d loads, stats %+v", loads["GRU"], g)
	}
	if g.Submitted != 3 || g.Completed != 3 || g.Batches != 3 || g.BatchSizeHist[0] != 3 {
		t.Fatalf("GRU counters across its eviction: %+v", g)
	}
	var latencies uint64
	for _, n := range g.LatencyHist {
		latencies += n
	}
	if latencies != 3 {
		t.Fatalf("GRU latency histogram counts %d requests, want 3", latencies)
	}
	if l.Resident || l.Evictions != 1 || l.Completed != 1 || st.Requests != 4 || st.ResidentBytes != 100 {
		t.Fatalf("LSTM %+v, server %+v", l, st)
	}
}

// TestParsePriority checks the wire-name round trip and that unknown names
// degrade to the default class.
func TestParsePriority(t *testing.T) {
	for _, p := range []Priority{PriorityLow, PriorityNormal, PriorityHigh} {
		if got := parsePriority(p.String()); got != p {
			t.Errorf("parsePriority(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if got := parsePriority("urgent!!"); got != PriorityNormal {
		t.Errorf("parsePriority(unknown) = %v, want normal", got)
	}
	ctx := WithPriority(context.Background(), PriorityHigh)
	if got := priorityFromContext(ctx); got != PriorityHigh {
		t.Errorf("priorityFromContext = %v, want high", got)
	}
	if got := priorityFromContext(context.Background()); got != PriorityNormal {
		t.Errorf("priorityFromContext(default) = %v, want normal", got)
	}
}
