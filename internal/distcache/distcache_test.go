package distcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tango/internal/cache"
	"tango/internal/device"
	"tango/internal/dram"
	"tango/internal/fpga"
	"tango/internal/gpusim"
	"tango/internal/target"
)

// testTrace extracts a real (small) network trace once per test binary.
var (
	traceOnce sync.Once
	trace     *target.Trace
	traceErr  error
)

func testTrace(tb testing.TB) *target.Trace {
	tb.Helper()
	traceOnce.Do(func() { trace, traceErr = target.Extract("GRU") })
	if traceErr != nil {
		tb.Fatalf("extract trace: %v", traceErr)
	}
	return trace
}

// gpuStats fabricates a fully-populated GPU run over the trace's kernels,
// with distinct values in every field so a lossy round trip cannot hide.
func gpuStats(tr *target.Trace) *target.RunStats {
	run := &gpusim.RunStats{Network: tr.Network}
	for i, k := range tr.Kernels {
		ks := &gpusim.KernelStats{
			Kernel:                  k,
			Cycles:                  int64(1000 + i),
			Seconds:                 0.001 * float64(i+1),
			SimCycles:               int64(500 + i),
			SimThreadInstructions:   int64(900 + i),
			ScaleFactor:             1.5 + float64(i),
			TotalThreadInstructions: int64(9000 + i),
			L1:                      cache.Stats{Accesses: int64(10 + i), Hits: int64(7 + i), Misses: 3},
			L2:                      cache.Stats{Accesses: int64(20 + i), Misses: 5, MergedMiss: 1},
			DRAM:                    dram.Stats{Requests: int64(6 + i), BytesMoved: int64(1 << (10 + i%4))},
			Activity:                gpusim.Activity{IssuedInstructions: int64(77 + i), RegReads: 3, RegWrites: 2},
			MaxResidentWarpsPerSM:   16 + i,
			AllocatedRegsPerSM:      2048,
			LiveRegsPerSM:           1024,
		}
		for j := range ks.OpCounts {
			ks.OpCounts[j] = int64(i + j)
		}
		for j := range ks.TypeCounts {
			ks.TypeCounts[j] = int64(2*i + j)
		}
		for j := range ks.Stalls {
			ks.Stalls[j] = int64(3*i + j)
		}
		run.Kernels = append(run.Kernels, ks)
	}
	return &target.RunStats{
		Network:      tr.Network,
		Target:       "fake-gpu",
		Class:        device.ClassGPU,
		Cycles:       123456,
		Seconds:      0.789,
		Instructions: 424242,
		PeakWatts:    98.5,
		AvgWatts:     55.25,
		EnergyJoules: 43.3,
		L2MissRatio:  0.123,
		GPU:          run,
	}
}

func fpgaStats(tr *target.Trace) *target.RunStats {
	return &target.RunStats{
		Network:      tr.Network,
		Target:       "fake-fpga",
		Class:        device.ClassFPGA,
		Seconds:      1.5,
		PeakWatts:    2.5,
		AvgWatts:     2.5,
		EnergyJoules: 3.75,
		FPGA: &fpga.Result{
			Network: tr.Network,
			Layers: []fpga.LayerCost{
				{Layer: "conv1", Class: "CONV", Ops: 1000, WorkingSetBytes: 4096, Partitions: 2, Seconds: 0.5},
				{Layer: "fc1", Class: "FC", Ops: 500, WorkingSetBytes: 2048, Partitions: 1, Seconds: 1.0},
			},
			Seconds:         1.5,
			PeakWatts:       2.5,
			AvgWatts:        2.5,
			EnergyJoules:    3.75,
			TotalPartitions: 3,
		},
	}
}

// TestRoundTripGPU: a stored GPU run loads back deep-equal, with every
// kernel rebound to the caller's trace (pointer identity, not a copy).
func TestRoundTripGPU(t *testing.T) {
	tr := testTrace(t)
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rs := gpuStats(tr)
	const key = "fake-gpu\x00GRU\x00cfg"
	if err := c.Store(key, rs); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Load(key, tr)
	if !ok {
		t.Fatal("Load missed a just-stored record")
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("round trip mutated the run:\ngot  %+v\nwant %+v", got, rs)
	}
	for i, ks := range got.GPU.Kernels {
		if ks.Kernel != tr.Kernels[i] {
			t.Fatalf("kernel %d not rebound to the trace's kernel pointer", i)
		}
	}
}

// TestRoundTripFPGA: the FPGA payload (no kernel pointers) round-trips
// deep-equal too.
func TestRoundTripFPGA(t *testing.T) {
	tr := testTrace(t)
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rs := fpgaStats(tr)
	const key = "fake-fpga\x00GRU\x00fpga"
	if err := c.Store(key, rs); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Load(key, tr)
	if !ok {
		t.Fatal("Load missed a just-stored record")
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("round trip mutated the run:\ngot  %+v\nwant %+v", got, rs)
	}
}

// defectiveRecords derives from a valid record the defects a cache file can
// show: garbage, a truncated write, an empty file, and a record written by a
// build with another format version.
func defectiveRecords(tb testing.TB, valid []byte) map[string][]byte {
	tb.Helper()
	var m map[string]any
	if err := json.Unmarshal(valid, &m); err != nil {
		tb.Fatal(err)
	}
	m["format"] = FormatVersion + 1
	stale, err := json.Marshal(m)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{
		"corrupt":       []byte("{not json at all"),
		"truncated":     valid[:len(valid)/2],
		"empty":         nil,
		"stale-version": stale,
	}
}

// TestDefectiveRecordsAreMisses: corruption, truncation and stale format
// versions are all recomputed (miss), never trusted.
func TestDefectiveRecordsAreMisses(t *testing.T) {
	tr := testTrace(t)
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "fake-gpu\x00GRU\x00cfg"
	rs := gpuStats(tr)
	if err := c.Store(key, rs); err != nil {
		t.Fatal(err)
	}
	path := c.Path(key)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, data := range defectiveRecords(t, valid) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Load(key, tr); ok {
			t.Fatalf("%s record must be a miss", name)
		}
	}

	// Restoring the valid bytes restores the hit.
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(key, tr); !ok {
		t.Fatal("restored record should hit")
	}
}

// FuzzDecode: a cache file is the only place a record's bytes come from, and
// anyone may have written it.  Whatever the bytes and the key asked for,
// Decode does not panic; a record it accepts carries that key in-band and
// survives Encode and a second Decode unchanged; and Load hits exactly when
// Decode accepts.
func FuzzDecode(f *testing.F) {
	tr := testTrace(f)
	const gpuKey, fpgaKey = "fake-gpu\x00GRU\x00cfg", "fake-fpga\x00GRU\x00fpga"
	gpu, err := Encode(gpuKey, gpuStats(tr))
	if err != nil {
		f.Fatal(err)
	}
	fpga, err := Encode(fpgaKey, fpgaStats(tr))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gpu, gpuKey)
	f.Add(fpga, fpgaKey)
	f.Add(gpu, fpgaKey)
	for _, data := range defectiveRecords(f, gpu) {
		f.Add(data, gpuKey)
	}
	c, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		rs, err := Decode(data, key, tr)
		if err == nil {
			var inBand struct{ Key string }
			if json.Unmarshal(data, &inBand) != nil || inBand.Key != key {
				t.Fatalf("accepted under key %q a record that carries %q", key, inBand.Key)
			}
			again, err := Encode(key, rs)
			if err != nil {
				t.Fatalf("accepted record does not encode: %v", err)
			}
			rs2, err := Decode(again, key, tr)
			if err != nil || !reflect.DeepEqual(rs, rs2) {
				t.Fatalf("accepted record changed over Encode and Decode (%v):\nfirst  %+v\nsecond %+v", err, rs, rs2)
			}
		}
		path := c.Path(key)
		if e := os.MkdirAll(filepath.Dir(path), 0o755); e != nil {
			t.Fatal(e)
		}
		if e := os.WriteFile(path, data, 0o644); e != nil {
			t.Fatal(e)
		}
		defer os.Remove(path)
		if _, hit := c.Load(key, tr); hit != (err == nil) {
			t.Fatalf("Decode said %v, Load of the same bytes hit=%v", err, hit)
		}
	})
}

// TestDecodeVerifiesIdentity: a record keyed or shaped differently from
// what the caller asked for is rejected, even if it parses.
func TestDecodeVerifiesIdentity(t *testing.T) {
	tr := testTrace(t)
	rs := gpuStats(tr)
	const key = "fake-gpu\x00GRU\x00cfg"
	data, err := Encode(key, rs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data, "some-other-key", tr); err == nil || !strings.Contains(err.Error(), "key") {
		t.Fatalf("mismatched key must fail decode, got %v", err)
	}
	other := &target.Trace{Network: "AlexNet", Kernels: tr.Kernels}
	if _, err := Decode(data, key, other); err == nil {
		t.Fatal("mismatched network must fail decode")
	}
	short := &target.Trace{Network: tr.Network, Kernels: tr.Kernels[:1]}
	if _, err := Decode(data, key, short); err == nil {
		t.Fatal("mismatched kernel count must fail decode")
	}
}

// TestConcurrentSharedDirectory: many writers and readers over two Cache
// handles on one directory (two "processes").  Rename-on-write means a
// reader sees either nothing or a complete record — a hit that decodes to
// anything but the full run, or a leftover temp file, is a failure.
func TestConcurrentSharedDirectory(t *testing.T) {
	tr := testTrace(t)
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rs := gpuStats(tr)
	const key = "fake-gpu\x00GRU\x00cfg"

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 8; i++ {
		w := a
		if i%2 == 1 {
			w = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := w.Store(key, rs); err != nil {
					errs <- "store: " + err.Error()
					return
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		r := b
		if i%2 == 1 {
			r = a
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				got, ok := r.Load(key, tr)
				if !ok {
					continue // not yet written: fine
				}
				if !reflect.DeepEqual(got, rs) {
					errs <- "load observed a partial or mangled record"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// No temp files may survive; the shard dir holds exactly the record.
	var files []string
	if err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, filepath.Base(p))
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || strings.HasPrefix(files[0], ".tmp-") {
		t.Fatalf("cache dir should hold exactly the record, got %v", files)
	}
}

// TestNoEvictionUnbounded: nothing bounds the directory, so every record
// stored is still there to load.
func TestNoEvictionUnbounded(t *testing.T) {
	tr := testTrace(t)
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rs := gpuStats(tr)
	for i := 0; i < 5; i++ {
		if err := c.Store(fmt.Sprintf("fake-gpu\x00GRU\x00u-%d", i), rs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.Load(fmt.Sprintf("fake-gpu\x00GRU\x00u-%d", i), tr); !ok {
			t.Fatalf("record %d missing", i)
		}
	}
}
