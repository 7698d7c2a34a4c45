package tango_test

import (
	"testing"

	"tango"
)

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
