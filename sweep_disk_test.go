package tango

import (
	"reflect"
	"testing"

	"tango/internal/distcache"
)

// TestSweepWarmDiskByteIdentical is the persistent-cache acceptance test:
// a cold sweep against a cache directory populates it, and an identical
// sweep over a fresh store (the cross-process case — SweepConfig.CacheDir
// always gets a private store with an empty memory tier) reproduces the
// table and CSV byte-for-byte while executing zero simulator runs.
func TestSweepWarmDiskByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := SweepConfig{
		Networks:     []string{"GRU"},
		Targets:      []string{"gp102", "pynq"},
		FastSampling: true,
		CacheDir:     dir,
	}

	var cold CacheStats
	cfg.CacheStats = &cold
	ds1, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Computes != int64(len(ds1.Records)) {
		t.Fatalf("cold sweep computed %d cells for %d records", cold.Computes, len(ds1.Records))
	}
	if cold.DiskWrites != cold.Computes {
		t.Fatalf("cold sweep wrote %d records for %d computes", cold.DiskWrites, cold.Computes)
	}

	var warm CacheStats
	cfg.CacheStats = &warm
	ds2, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Computes != 0 {
		t.Fatalf("warm sweep executed %d simulator runs, want 0", warm.Computes)
	}
	if warm.DiskHits != int64(len(ds2.Records)) {
		t.Fatalf("warm sweep hit disk %d times for %d records", warm.DiskHits, len(ds2.Records))
	}
	if csv1, csv2 := ds1.CSV(), ds2.CSV(); csv1 != csv2 {
		t.Fatalf("warm CSV differs from cold CSV:\n%s\nvs\n%s", csv1, csv2)
	}
	tbl1 := ds1.Table("sweep", "t").String()
	tbl2 := ds2.Table("sweep", "t").String()
	if tbl1 != tbl2 {
		t.Fatalf("warm table differs from cold table:\n%s\nvs\n%s", tbl1, tbl2)
	}
}

// TestSimulateReplaysFromDisk: Simulate is a run-store cell like a sweep's,
// so a fresh store over the same directory replays it from disk without
// computing, and the replay equals the cold result field for field.
func TestSimulateReplaysFromDisk(t *testing.T) {
	d, err := distcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBenchmark("CifarNet")
	if err != nil {
		t.Fatal(err)
	}
	opts := []SimOption{WithFastSampling(), WithL1SizeKB(0), WithScheduler("lrr")}

	st := coldSweepStore(t)
	st.SetDisk(d)
	cold, err := b.Simulate(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Computes != 1 || s.DiskWrites != 1 {
		t.Fatalf("cold Simulate: %d computes, %d disk writes; want 1 and 1", s.Computes, s.DiskWrites)
	}

	st = coldSweepStore(t)
	st.SetDisk(d)
	warm, err := b.Simulate(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Computes != 0 || s.DiskHits != 1 {
		t.Fatalf("replayed Simulate: %d computes, %d disk hits; want 0 and 1", s.Computes, s.DiskHits)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("Simulate replayed from disk differs from the cold result:\n%+v\nvs\n%+v", cold, warm)
	}
}
