package report

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Record is one (network, target, variant) cell of a characterization sweep:
// the backend-independent summary statistics of a single run.
type Record struct {
	Network string `json:"network"`
	Target  string `json:"target"`
	// Class is the target's device class, e.g. "GPU" or "FPGA".
	Class string `json:"class"`
	// Variant names the configuration point, e.g. "default" or "nol1".
	Variant string `json:"variant"`

	Cycles       int64   `json:"cycles,omitempty"`
	Seconds      float64 `json:"seconds"`
	Instructions int64   `json:"instructions,omitempty"`
	PeakWatts    float64 `json:"peak_watts"`
	AvgWatts     float64 `json:"avg_watts"`
	EnergyJoules float64 `json:"energy_joules"`
	L2MissRatio  float64 `json:"l2_miss_ratio,omitempty"`
}

// Dataset is the deterministic result of a characterization sweep: one record
// per (network, target, variant) cell.  Figures and tables are projections of
// a dataset; the JSON and CSV encodings feed external tooling.
type Dataset struct {
	// Records holds the sweep cells in deterministic sweep order.
	Records []Record `json:"records"`
}

// Add appends a record.
func (d *Dataset) Add(r Record) { d.Records = append(d.Records, r) }

// Len returns the record count.
func (d *Dataset) Len() int { return len(d.Records) }

// Sort orders records by network, then target, then variant — a canonical
// order independent of how the sweep was scheduled.
func (d *Dataset) Sort() {
	sort.SliceStable(d.Records, func(i, j int) bool {
		a, b := d.Records[i], d.Records[j]
		if a.Network != b.Network {
			return a.Network < b.Network
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Variant < b.Variant
	})
}

// Table projects the dataset onto a report table.
func (d *Dataset) Table(id, title string) *Table {
	t := &Table{
		ID:    id,
		Title: title,
		// Error and Numerics are fixed cells, "-" and "reference": a sweep
		// either yields every cell or fails, and it models only the
		// reference kernels.  The columns stay, last, because the sweep
		// CSV's bytes are pinned (benchmark/expected.json holds their
		// SHA-256) and CSV consumers key on the column set.
		Columns: []string{"Network", "Target", "Class", "Variant",
			"Cycles", "Seconds", "Instructions", "Peak (W)", "Avg (W)", "Energy (J)", "L2 miss", "Error", "Numerics"},
	}
	for _, r := range d.Records {
		cycles := "-"
		if r.Cycles > 0 {
			cycles = fmt.Sprintf("%d", r.Cycles)
		}
		instr := "-"
		if r.Instructions > 0 {
			instr = fmt.Sprintf("%d", r.Instructions)
		}
		l2 := "-"
		if r.L2MissRatio > 0 {
			l2 = fmt.Sprintf("%.4f", r.L2MissRatio)
		}
		t.AddRow(r.Network, r.Target, r.Class, r.Variant,
			cycles, FormatFloat(r.Seconds), instr,
			FormatFloat(r.PeakWatts), FormatFloat(r.AvgWatts),
			FormatFloat(r.EnergyJoules), l2, "-", "reference")
	}
	return t
}

// JSON renders the dataset as indented JSON.
func (d *Dataset) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// CSV renders the dataset as comma-separated values with a header row.
func (d *Dataset) CSV() string {
	return d.Table("", "").CSV()
}
