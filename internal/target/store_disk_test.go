package target

import (
	"errors"
	"sync"
	"testing"

	"tango/internal/gpusim"
)

// fakeDisk is an in-memory DiskCache double: it stores RunStats by value
// (no serialization) and can be made to fail writes.
type fakeDisk struct {
	mu       sync.Mutex
	m        map[string]*RunStats
	failPut  bool
	loads    int
	puts     int
	putFails int
}

func newFakeDisk() *fakeDisk { return &fakeDisk{m: make(map[string]*RunStats)} }

func (d *fakeDisk) Load(key string, tr *Trace) (*RunStats, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.loads++
	rs, ok := d.m[key]
	return rs, ok
}

func (d *fakeDisk) Store(key string, rs *RunStats) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failPut {
		d.putFails++
		return errors.New("disk full")
	}
	d.puts++
	d.m[key] = rs
	return nil
}

// TestStoreWritesThroughAndWarmStoreSkipsCompute: a computed cell is
// written to the disk tier, and a fresh store over the same disk serves
// the cell without invoking the target — the cross-process warm path.
func TestStoreWritesThroughAndWarmStoreSkipsCompute(t *testing.T) {
	disk := newFakeDisk()
	v := DefaultVariant(gpusim.FastSampling())

	cold := NewStore()
	cold.SetDisk(disk)
	tgt := &countingTarget{name: "stub"}
	if _, err := cold.Run(tgt, "GRU", v); err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.Computes != 1 || st.DiskMisses != 1 || st.DiskWrites != 1 {
		t.Fatalf("cold store stats = %+v", st)
	}

	warm := NewStore()
	warm.SetDisk(disk)
	tgt2 := &countingTarget{name: "stub"}
	rs, err := warm.Run(tgt2, "GRU", v)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Seconds != 1 {
		t.Fatalf("warm result = %+v", rs)
	}
	if n := tgt2.runs.Load(); n != 0 {
		t.Fatalf("warm store ran the target %d times, want 0", n)
	}
	st = warm.Stats()
	if st.Computes != 0 || st.DiskHits != 1 {
		t.Fatalf("warm store stats = %+v", st)
	}

	// Second lookup in the warm store hits memory, not disk.
	loads := disk.loads
	if _, err := warm.Run(tgt2, "GRU", v); err != nil {
		t.Fatal(err)
	}
	if disk.loads != loads {
		t.Fatalf("memory hit consulted the disk (%d -> %d loads)", loads, disk.loads)
	}
}

// TestStoreDiskWriteFailureIsSoft: a failing disk tier costs a counter,
// not the run.
func TestStoreDiskWriteFailureIsSoft(t *testing.T) {
	disk := newFakeDisk()
	disk.failPut = true
	store := NewStore()
	store.SetDisk(disk)
	tgt := &countingTarget{name: "stub"}
	rs, err := store.Run(tgt, "GRU", DefaultVariant(gpusim.FastSampling()))
	if err != nil || rs == nil {
		t.Fatalf("Run with failing disk = %+v, %v", rs, err)
	}
	if st := store.Stats(); st.DiskErrors != 1 || st.DiskWrites != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
