package report

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleDataset() *Dataset {
	d := &Dataset{}
	d.Add(Record{Network: "GRU", Target: "gp102", Class: "GPU", Variant: "default",
		Cycles: 95449, Seconds: 6.45e-05, Instructions: 487938,
		PeakWatts: 54.9, AvgWatts: 54.9, EnergyJoules: 3.54e-03, L2MissRatio: 1})
	d.Add(Record{Network: "GRU", Target: "pynq", Class: "FPGA", Variant: "default",
		Seconds: 5.09e-04, PeakWatts: 4.06, AvgWatts: 2.92, EnergyJoules: 2.07e-03})
	return d
}

func TestDatasetTable(t *testing.T) {
	tab := sampleDataset().Table("sweep", "Sweep")
	if tab.ID != "sweep" || len(tab.Rows) != 2 {
		t.Fatalf("unexpected table: %+v", tab)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Errorf("row width %d != %d columns", len(row), len(tab.Columns))
		}
	}
	s := tab.String()
	// The FPGA record has no cycle/instruction/L2 figures: rendered as "-".
	if !strings.Contains(s, "-") || !strings.Contains(s, "pynq") {
		t.Errorf("FPGA row should render dashes for GPU-only columns:\n%s", s)
	}
}

func TestDatasetJSONRoundTrip(t *testing.T) {
	d := sampleDataset()
	enc, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Dataset
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 2 || back.Records[0] != d.Records[0] || back.Records[1] != d.Records[1] {
		t.Errorf("round trip mismatch: %+v", back.Records)
	}
	// GPU-only fields are omitted for the FPGA record.
	if strings.Count(string(enc), "cycles") != 1 {
		t.Errorf("zero cycles should be omitted from JSON:\n%s", enc)
	}
}

func TestDatasetCSV(t *testing.T) {
	csv := sampleDataset().CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 records, got %d lines:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "Network,Target,Class,Variant") {
		t.Errorf("missing CSV header: %q", lines[0])
	}
}

func TestDatasetSort(t *testing.T) {
	d := &Dataset{}
	d.Add(Record{Network: "LSTM", Target: "tx1", Variant: "default"})
	d.Add(Record{Network: "GRU", Target: "tx1", Variant: "nol1"})
	d.Add(Record{Network: "GRU", Target: "gp102", Variant: "default"})
	d.Add(Record{Network: "GRU", Target: "tx1", Variant: "default"})
	d.Sort()
	var got []string
	for _, r := range d.Records {
		got = append(got, r.Network+"/"+r.Target+"/"+r.Variant)
	}
	want := []string{"GRU/gp102/default", "GRU/tx1/default", "GRU/tx1/nol1", "LSTM/tx1/default"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sort order %v, want %v", got, want)
		}
	}
}

// TestDatasetFixedColumns checks the two trailing fixed columns: every row
// renders Error as "-" and Numerics as "reference", in the table and the
// CSV, and the JSON carries neither key.
func TestDatasetFixedColumns(t *testing.T) {
	d := sampleDataset()
	tab := d.Table("sweep", "Sweep")
	if got := tab.Columns[len(tab.Columns)-2:]; got[0] != "Error" || got[1] != "Numerics" {
		t.Fatalf("last columns %q, want Error, Numerics", got)
	}
	for _, row := range tab.Rows {
		if got := row[len(row)-2:]; got[0] != "-" || got[1] != "reference" {
			t.Errorf("row %v ends %q, want -, reference", row, got)
		}
	}
	lines := strings.Split(strings.TrimSpace(d.CSV()), "\n")
	if !strings.HasSuffix(lines[0], ",Error,Numerics") {
		t.Errorf("CSV header should end with the fixed columns: %q", lines[0])
	}
	for _, line := range lines[1:] {
		if !strings.HasSuffix(line, ",-,reference") {
			t.Errorf("CSV row should end with the fixed cells: %q", line)
		}
	}
	enc, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), "error") || strings.Contains(string(enc), "numerics") {
		t.Errorf("JSON should carry no error or numerics key:\n%s", enc)
	}
}

func TestEmptyDataset(t *testing.T) {
	var d Dataset
	if d.Len() != 0 {
		t.Fatal("empty dataset should have zero length")
	}
	if csv := d.CSV(); !strings.HasPrefix(csv, "Network,") {
		t.Errorf("empty dataset CSV should still carry the header: %q", csv)
	}
	enc, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(enc), "records") {
		t.Errorf("empty dataset JSON should carry the records key: %s", enc)
	}
	if s := d.Table("sweep", "Empty").String(); !strings.Contains(s, "Network") {
		t.Errorf("empty dataset table should render its header: %q", s)
	}
}
