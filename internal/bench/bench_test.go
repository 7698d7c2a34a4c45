package bench_test

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"tango/internal/bench"
	"tango/internal/gpusim"
)

// quickSession restricts experiments to small networks with coarse sampling
// so the whole experiment matrix stays fast enough for unit tests.
func quickSession() *bench.Session {
	return bench.NewSession(bench.Options{
		Sampling: gpusim.FastSampling(),
		Networks: []string{"GRU", "LSTM", "CifarNet"},
	})
}

func TestExperimentsList(t *testing.T) {
	exps := bench.Experiments()
	if len(exps) != 20 {
		t.Fatalf("expected 20 experiments (4 tables + 16 figures), got %d", len(exps))
	}
	ids := bench.IDs()
	if len(ids) != len(exps) {
		t.Fatal("IDs and Experiments disagree")
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, want := range []string{"table1", "table2", "table3", "table4", "fig1", "fig16"} {
		if !seen[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	s := quickSession()
	if _, err := s.Run("fig99"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestStaticTables(t *testing.T) {
	s := bench.NewSession(bench.Options{Sampling: gpusim.FastSampling()})
	t1, err := s.Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 7 {
		t.Errorf("table1 should list 7 networks, got %d", len(t1.Rows))
	}
	t2, err := s.Run("table2")
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 3 {
		t.Errorf("table2 should list 3 GPUs, got %d", len(t2.Rows))
	}
	if !strings.Contains(t2.String(), "2880") {
		t.Error("table2 should report the GK210's 2880 CUDA cores")
	}
	t4, err := s.Run("table4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t4.String(), "13300") {
		t.Error("table4 should report the PynQ's 13300 logic slices")
	}
}

func TestTable3LaunchGeometry(t *testing.T) {
	s := quickSession()
	tab, err := s.Run("table3")
	if err != nil {
		t.Fatal(err)
	}
	// One row per kernel of the three selected networks: GRU(2) + LSTM(2) +
	// CifarNet(9).
	if len(tab.Rows) != 13 {
		t.Errorf("table3 rows = %d, want 13", len(tab.Rows))
	}
	text := tab.String()
	if !strings.Contains(text, "(10,10,1)") || !strings.Contains(text, "(100,1,1)") {
		t.Error("table3 should contain the GRU and LSTM block geometries from Table III")
	}
}

func TestFigureDriversProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment matrix skipped in -short mode")
	}
	s := quickSession()
	// Exclude the experiments pinned to networks outside the quick set
	// (fig10 ResNet, fig16 AlexNet are covered separately).
	for _, id := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig11", "fig12", "fig13", "fig14", "fig15"} {
		tab, err := s.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tab.ID != id {
			t.Errorf("%s: table id %q", id, tab.ID)
		}
		if len(tab.Columns) == 0 {
			t.Errorf("%s: no columns", id)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
		if tab.String() == "" || tab.CSV() == "" {
			t.Errorf("%s: empty rendering", id)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	s := quickSession()
	tab, err := s.Run("fig2")
	if err != nil {
		t.Fatal(err)
	}
	// Three networks, each with a normalized "No L1" value of exactly 1.000.
	if len(tab.Rows) != 3 {
		t.Fatalf("fig2 rows = %d, want 3", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] != "1.000" {
			t.Errorf("No-L1 column should be the normalization base, got %q", row[2])
		}
	}
}

func TestFig6CoversBothPlatforms(t *testing.T) {
	s := bench.NewSession(bench.Options{
		Sampling: gpusim.FastSampling(),
		Networks: []string{"CifarNet"},
	})
	tab, err := s.Run("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("fig6 rows = %d, want 2 (TX1 + PynQ)", len(tab.Rows))
	}
	text := tab.String()
	if !strings.Contains(text, "TX1") || !strings.Contains(text, "PynQ") {
		t.Error("fig6 should compare TX1 against PynQ")
	}
}

func TestFig9TopTen(t *testing.T) {
	s := quickSession()
	tab, err := s.Run("fig9")
	if err != nil {
		t.Fatal(err)
	}
	// Ten ranked ops plus the Others row.
	if len(tab.Rows) != 11 {
		t.Errorf("fig9 rows = %d, want 11", len(tab.Rows))
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "top 10") {
		t.Error("fig9 should note the top-10 coverage")
	}
}

func TestFig15NormalizedToGTO(t *testing.T) {
	s := quickSession()
	tab, err := s.Run("fig15")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[2] != "1.000" {
			t.Errorf("GTO column must be 1.000, got %q", row[2])
		}
	}
}

func TestSessionCachingAvoidsRecomputation(t *testing.T) {
	s := quickSession()
	if _, err := s.Run("fig1"); err != nil {
		t.Fatal(err)
	}
	// fig3 uses the same default-config runs; with caching this second call
	// should be nearly instant, and more importantly produce consistent data.
	a, err := s.Run("fig3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("repeated experiment runs should be identical")
	}
}

func TestOptionsFilterRestrictsNetworks(t *testing.T) {
	s := bench.NewSession(bench.Options{
		Sampling: gpusim.FastSampling(),
		Networks: []string{"GRU"},
	})
	tab, err := s.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "GRU" {
		t.Errorf("filter should restrict fig11 to GRU, got %v", tab.Rows)
	}
}

func TestTablesHaveConsistentRowWidths(t *testing.T) {
	s := quickSession()
	for _, id := range []string{"table1", "table2", "table3", "table4", "fig11", "fig12"} {
		tab, err := s.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for i, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("%s row %d has %d cells for %d columns", id, i, len(row), len(tab.Columns))
			}
		}
	}
}

// percentCell parses a report.FormatPercent cell ("20.8%").
func percentCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a percentage: %v", cell, err)
	}
	return v
}

// TestFig5KeyConsumers checks fig5's note ("register file, L2 cache and
// idle-core power are the key consumers") against the figure it is printed
// under, on the full suite.  What holds is asserted: the largest component of
// every network is the register file or the idle cores, and on every CNN both
// are among the three largest (the RNNs' tiny kernels leave the cores idle,
// so everything but idle-core power rounds to zero there).  The L2 cache is
// not a top consumer in this power model — its share is logged beside the
// component that takes its place, so the gap between the note and the model
// stays visible.
func TestFig5KeyConsumers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite simulation skipped in -short mode")
	}
	s := bench.NewSession(bench.Options{Sampling: gpusim.FastSampling()})
	tab, err := s.Run("fig5")
	if err != nil {
		t.Fatal(err)
	}
	for col := 1; col < len(tab.Columns); col++ {
		net := tab.Columns[col]
		share := map[string]float64{}
		var order []string
		for _, row := range tab.Rows {
			share[row[0]] = percentCell(t, row[col])
			order = append(order, row[0])
		}
		sort.SliceStable(order, func(i, j int) bool { return share[order[i]] > share[order[j]] })
		top3 := strings.Join(order[:3], " ")
		t.Logf("%-10s %s %.1f%%, %s %.1f%%, %s %.1f%%, then %s %.1f%%; L2CP %.1f%%", net,
			order[0], share[order[0]], order[1], share[order[1]], order[2], share[order[2]],
			order[3], share[order[3]], share["L2CP"])
		if order[0] != "RFP" && order[0] != "IDLE_COREP" {
			t.Errorf("%s: largest component %s, want the register file or the idle cores", net, order[0])
		}
		if net == "GRU" || net == "LSTM" {
			continue
		}
		if !strings.Contains(top3, "RFP") || !strings.Contains(top3, "IDLE_COREP") {
			t.Errorf("%s: three largest components %s, want the register file and the idle cores among them", net, top3)
		}
		t.Logf("%-10s margin over fourth place: %.1f points", net,
			min(share["RFP"], share["IDLE_COREP"])-share[order[3]])
	}
}

// TestFig6TX1EnergyExceedsPynQ asserts fig6's note: for both networks the
// TX1's energy (peak power x execution time) normalized to the PynQ's is
// above 1.00.
func TestFig6TX1EnergyExceedsPynQ(t *testing.T) {
	s := bench.NewSession(bench.Options{Sampling: gpusim.FastSampling()})
	tab, err := s.Run("fig6")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, row := range tab.Rows {
		if row[1] != "TX1" {
			continue
		}
		seen++
		norm, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: TX1 energy %.2fx the PynQ's (margin %.2f)", row[0], norm, norm-1)
		if norm <= 1 {
			t.Errorf("%s: normalized TX1 energy %.2f, want > 1.00", row[0], norm)
		}
	}
	if seen != 2 {
		t.Fatalf("fig6 has %d TX1 rows, want CifarNet and SqueezeNet", seen)
	}
}
