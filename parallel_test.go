package tango_test

import (
	"reflect"
	"testing"

	"tango"
)

// TestSimulateParallelDeterminism asserts that kernel-parallel simulation of
// every network in the suite produces results identical to serial execution.
func TestSimulateParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite determinism check skipped in -short mode")
	}
	for _, name := range tango.Benchmarks() {
		bm, err := tango.LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := bm.Simulate(tango.WithFastSampling(), tango.WithParallelism(1))
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		parallel, err := bm.Simulate(tango.WithFastSampling(), tango.WithParallelism(8))
		if err != nil {
			t.Fatalf("%s: parallel: %v", name, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: parallel simulation result differs from serial", name)
		}
	}
}

// TestSimulateDefaultMatchesSerial holds Simulate without a worker option to
// the bits of a serial run.
func TestSimulateDefaultMatchesSerial(t *testing.T) {
	bm, err := tango.LoadBenchmark("CifarNet")
	if err != nil {
		t.Fatal(err)
	}
	def, err := bm.Simulate(tango.WithFastSampling())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := bm.Simulate(tango.WithFastSampling(), tango.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, serial) {
		t.Errorf("Simulate without a worker option differs from WithParallelism(1):\n%+v\nvs\n%+v", def, serial)
	}
}

// TestRunAllParallelDeterminism asserts that a parallel experiment session
// renders every table of the full report byte-identically to a serial one,
// across all seven networks under fast sampling.
func TestRunAllParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment matrix skipped in -short mode")
	}
	serialTables, err := tango.NewExperimentSession(
		tango.WithFastExperimentSampling(), tango.WithExperimentParallelism(1)).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	// The isolated cache forces the parallel session to genuinely recompute
	// its matrix concurrently — without it the session would render from the
	// process-wide shared store and the comparison would be vacuous.
	parallelTables, err := tango.NewExperimentSession(
		tango.WithFastExperimentSampling(), tango.WithExperimentParallelism(8),
		tango.WithIsolatedCache()).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(serialTables) != len(parallelTables) {
		t.Fatalf("table counts differ: %d vs %d", len(serialTables), len(parallelTables))
	}
	for i := range serialTables {
		a, b := serialTables[i].String(), parallelTables[i].String()
		if a != b {
			t.Errorf("%s: parallel rendering differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				serialTables[i].ID, a, b)
		}
	}
}
