// Tests for the unified characterization pipeline: golden byte-identity of
// every experiment table (serial and parallel), the multi-device sweep
// engine, and the trace-store reuse the pipeline is built around.
package tango_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tango"
)

// goldenPath locates the committed fixture of one experiment table, rendered
// with fast sampling over the full suite.
func goldenPath(id string) string {
	return filepath.Join("internal", "bench", "testdata", "golden", id+".golden")
}

// TestGoldenFiguresByteIdentical renders every experiment — serially and
// with the parallel fan-out — and compares each table byte-for-byte against
// the committed fixtures, locking the refactored pipeline to the exact
// pre-refactor output.
func TestGoldenFiguresByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment matrix skipped in -short mode")
	}
	check := func(t *testing.T, tabs []*tango.Table) {
		t.Helper()
		if len(tabs) != len(tango.Experiments()) {
			t.Fatalf("got %d tables, want %d", len(tabs), len(tango.Experiments()))
		}
		for _, tab := range tabs {
			want, err := os.ReadFile(goldenPath(tab.ID))
			if err != nil {
				t.Fatalf("%s: missing fixture: %v", tab.ID, err)
			}
			if got := tab.String(); got != string(want) {
				t.Errorf("%s: output differs from golden fixture\n--- got ---\n%s\n--- want ---\n%s",
					tab.ID, got, want)
			}
		}
	}

	t.Run("serial", func(t *testing.T) {
		tabs, err := tango.NewExperimentSession(
			tango.WithFastExperimentSampling(), tango.WithExperimentParallelism(1)).RunAll()
		if err != nil {
			t.Fatal(err)
		}
		check(t, tabs)
	})

	// The parallel session uses an isolated cache so the concurrent fan-out
	// genuinely recomputes every cell rather than reading the serial run's.
	t.Run("parallel", func(t *testing.T) {
		tabs, err := tango.NewExperimentSession(
			tango.WithFastExperimentSampling(),
			tango.WithExperimentParallelism(8),
			tango.WithIsolatedCache()).RunAll()
		if err != nil {
			t.Fatal(err)
		}
		check(t, tabs)
	})
}

// TestSweepEngine drives a multi-device sweep through the single tango.Sweep
// entry point: GPU, edge-GPU and FPGA targets over two networks, asserting
// deterministic shape and serial/parallel identity.
func TestSweepEngine(t *testing.T) {
	cfg := tango.SweepConfig{
		Networks:     []string{"GRU", "CifarNet"},
		Targets:      []string{"gp102", "tx1", "pynq"},
		FastSampling: true,
		Parallelism:  1,
	}
	serial, err := tango.Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 networks x 3 targets, one default variant each.
	if serial.Len() != 6 {
		t.Fatalf("sweep produced %d records, want 6", serial.Len())
	}
	// Deterministic order: networks outermost, then targets in request order.
	wantOrder := []string{
		"GRU/gp102", "GRU/tx1", "GRU/pynq",
		"CifarNet/gp102", "CifarNet/tx1", "CifarNet/pynq",
	}
	for i, r := range serial.Records {
		if got := r.Network + "/" + r.Target; got != wantOrder[i] {
			t.Errorf("record %d = %s, want %s", i, got, wantOrder[i])
		}
		if r.Seconds <= 0 || r.PeakWatts <= 0 || r.EnergyJoules <= 0 {
			t.Errorf("record %d has non-positive summary fields: %+v", i, r)
		}
		if r.Class == "FPGA" && (r.Cycles != 0 || r.Instructions != 0) {
			t.Errorf("FPGA record %d should have no GPU-only fields: %+v", i, r)
		}
		if r.Class == "GPU" && (r.Cycles <= 0 || r.Instructions <= 0) {
			t.Errorf("GPU record %d should report cycles and instructions: %+v", i, r)
		}
	}

	// Both sweeps share the process-wide store, so this checks the parallel
	// record assembly; the cold-store recompute determinism check lives in
	// TestSweepParallelDeterminismColdStore (white-box, fresh stores).
	cfg.Parallelism = 8
	parallel, err := tango.Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("parallel sweep dataset differs from serial")
	}
}

// TestSweepVariantDimensions asserts the L1 x scheduler cross product and
// the FPGA's collapse to a single configuration-insensitive cell.
func TestSweepVariantDimensions(t *testing.T) {
	ds, err := tango.Sweep(tango.SweepConfig{
		Networks:     []string{"GRU"},
		Targets:      []string{"gp102", "pynq"},
		L1SizesKB:    []int{0, 64},
		Schedulers:   []string{"gto", "lrr"},
		FastSampling: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// GPU: 2 L1 sizes x 2 schedulers; FPGA: one cell.
	if ds.Len() != 5 {
		t.Fatalf("sweep produced %d records, want 5", ds.Len())
	}
	variants := map[string]int{}
	for _, r := range ds.Records {
		variants[r.Target+"/"+r.Variant]++
	}
	for _, want := range []string{
		"gp102/nol1+sched-gto", "gp102/nol1+sched-lrr",
		"gp102/l1-64kb+sched-gto", "gp102/l1-64kb+sched-lrr",
		"pynq/default",
	} {
		if variants[want] != 1 {
			t.Errorf("missing sweep cell %s (got %v)", want, variants)
		}
	}
}

// TestSweepRejectsBadConfig covers the sweep engine's validation surface.
func TestSweepRejectsBadConfig(t *testing.T) {
	if _, err := tango.Sweep(tango.SweepConfig{Targets: []string{"a100"}}); err == nil {
		t.Error("unknown target should fail")
	}
	if _, err := tango.Sweep(tango.SweepConfig{
		Networks: []string{"GRU"}, FastSampling: true, L1SizesKB: []int{-1},
	}); err == nil {
		t.Error("negative L1 size should fail")
	}
	if _, err := tango.Sweep(tango.SweepConfig{
		Networks: []string{"GRU"}, FastSampling: true, Schedulers: []string{"fifo"},
	}); err == nil {
		t.Error("unknown scheduler should fail")
	}
	if _, err := tango.Sweep(tango.SweepConfig{
		Networks: []string{"NoSuchNet"}, FastSampling: true,
	}); err == nil {
		t.Error("unknown network should fail")
	}
}

// TestTargetsRegistry sanity-checks the public registry listing.
func TestTargetsRegistry(t *testing.T) {
	targets := tango.Targets()
	if len(targets) != 4 {
		t.Fatalf("expected 4 builtin targets, got %d", len(targets))
	}
	byName := map[string]tango.TargetInfo{}
	for _, ti := range targets {
		byName[ti.Name] = ti
	}
	if byName["gp102"].Class != "GPU" || byName["pynq"].Class != "FPGA" {
		t.Errorf("unexpected classes: %+v", byName)
	}
	if byName["tx1"].Role != "Mobile" {
		t.Errorf("tx1 should be the mobile GPU, got %+v", byName["tx1"])
	}
	found := false
	for _, a := range byName["gp102"].Aliases {
		if a == "simulator" {
			found = true
		}
	}
	if !found {
		t.Errorf("gp102 should keep its simulator alias, got %v", byName["gp102"].Aliases)
	}
}
