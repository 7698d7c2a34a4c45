package tango_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tango"
)

// simulateGoldenCases are the option sets testdata/simulate.golden pins,
// each run on GRU, LSTM and CifarNet.
var simulateGoldenCases = []struct {
	name string
	opts []tango.SimOption
}{
	{"fast", []tango.SimOption{tango.WithFastSampling()}},
	{"gk210-fast", []tango.SimOption{tango.WithDevice("GK210"), tango.WithFastSampling()}},
	{"tx1-nol1-lrr-fast", []tango.SimOption{tango.WithDevice("TX1"), tango.WithL1SizeKB(0),
		tango.WithScheduler("lrr"), tango.WithFastSampling()}},
	{"l1-128-tlv-fast-3workers", []tango.SimOption{tango.WithL1SizeKB(128),
		tango.WithScheduler("tlv"), tango.WithFastSampling(), tango.WithParallelism(3)}},
	{"default-sampling", nil},
}

// TestSimulateGolden pins every field of Simulate's result, as JSON, for
// three networks under five option sets (UPDATE_GOLDEN=1 rewrites the file).
func TestSimulateGolden(t *testing.T) {
	var got strings.Builder
	for _, network := range []string{"GRU", "LSTM", "CifarNet"} {
		b, err := tango.LoadBenchmark(network)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range simulateGoldenCases {
			res, err := b.Simulate(c.opts...)
			if err != nil {
				t.Fatalf("%s %s: %v", network, c.name, err)
			}
			enc, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s %s %s\n", network, c.name, enc)
		}
	}

	golden := filepath.Join("testdata", "simulate.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got.String() != string(want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("Simulate drifted from %s at line %d (regenerate with UPDATE_GOLDEN=1 if intended)\n--- got ---\n%s",
					golden, i+1, gotLines[i])
			}
		}
		t.Fatalf("Simulate drifted from %s: %d lines, want %d", golden, len(gotLines), len(wantLines))
	}
}
