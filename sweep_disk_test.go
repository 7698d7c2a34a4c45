package tango

import "testing"

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
