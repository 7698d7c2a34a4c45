// Package distcache is the persistent tier of the characterization run
// cache: an on-disk, content-addressed store of (target, network, variant)
// run results, shared by every process pointed at the same directory.
//
// Records are versioned JSON files named by the SHA-256 of the composite
// run key (Target.Name + network + Target.CacheKey(variant)), sharded into
// 256 two-hex-digit subdirectories.  Writes are atomic — encode to a
// temporary file in the destination directory, then rename — so concurrent
// processes sharing one cache directory never observe partial records; the
// last writer wins with byte-identical content, because runs are
// deterministic.  Every defect on the read path (missing file, truncated or
// corrupt JSON, stale format version, mismatched key or trace shape) is
// treated as a miss and the cell is recomputed: the cache can lose data,
// but it can never serve wrong data.
//
// Nothing bounds or prunes the directory: records are a few hundred
// kilobytes at most, any of them may be deleted at any time, and deleting
// old ones is the operator's `find -mtime` (docs/OPERATIONS.md).
package distcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"tango/internal/cache"
	"tango/internal/device"
	"tango/internal/dram"
	"tango/internal/fpga"
	"tango/internal/gpusim"
	"tango/internal/isa"
	"tango/internal/target"
)

// FormatVersion tags the record schema.  Bump it whenever the encoded
// shape changes incompatibly; readers treat any other version as a miss,
// so stale records are recomputed rather than misread.
const FormatVersion = 1

// Cache is one on-disk cache directory.  All methods are safe for
// concurrent use by any number of goroutines and processes.
type Cache struct {
	dir string
}

// Open returns a cache rooted at dir, creating the directory if needed.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("distcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("distcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Path returns the record file a key maps to: <dir>/<hh>/<sha256(key)>.json.
func (c *Cache) Path(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(c.dir, name[:2], name+".json")
}

// Load reads the cached run of key and rebinds it to the trace.  Any
// failure — absent, truncated, corrupt, stale schema, or a record whose
// key or kernel list does not match — is a miss.
func (c *Cache) Load(key string, tr *target.Trace) (*target.RunStats, bool) {
	data, err := os.ReadFile(c.Path(key))
	if err != nil {
		return nil, false
	}
	rs, err := Decode(data, key, tr)
	return rs, err == nil
}

// Store writes the run under key atomically: the record is encoded to a
// temporary file in the destination shard directory and renamed into
// place, so a concurrent Load sees either the old record or the complete
// new one, never a partial write.
func (c *Cache) Store(key string, rs *target.RunStats) error {
	data, err := Encode(key, rs)
	if err != nil {
		return err
	}
	path := c.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("distcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("distcache: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("distcache: %w", werr)
	}
	return nil
}

// record is the on-disk schema.  The header pins everything a
// reader must agree on before trusting the payload: the format version,
// the enum dimensions the fixed-size counter arrays depend on, and the
// full composite key (hashing the key to a filename is lossy, so the key
// is repeated in-band and verified on decode).
type record struct {
	Format       int     `json:"format"`
	Key          string  `json:"key"`
	NumOpcodes   int     `json:"num_opcodes"`
	NumDTypes    int     `json:"num_dtypes"`
	NumStalls    int     `json:"num_stalls"`
	Network      string  `json:"network"`
	Target       string  `json:"target"`
	Class        string  `json:"class"`
	Cycles       int64   `json:"cycles"`
	Seconds      float64 `json:"seconds"`
	Instructions int64   `json:"instructions"`
	PeakWatts    float64 `json:"peak_watts"`
	AvgWatts     float64 `json:"avg_watts"`
	EnergyJoules float64 `json:"energy_joules"`
	L2MissRatio  float64 `json:"l2_miss_ratio"`

	GPU  []kernelRecord `json:"gpu,omitempty"`
	FPGA *fpga.Result   `json:"fpga,omitempty"`
}

// kernelRecord mirrors gpusim.KernelStats minus the *kernel.Kernel
// pointer: thread programs are deterministic per network, so records
// carry only the layer identity and the decoder rebinds each entry to the
// matching kernel of the caller's trace.
type kernelRecord struct {
	Layer string `json:"layer"`
	Class string `json:"class"`

	Cycles                  int64   `json:"cycles"`
	Seconds                 float64 `json:"seconds"`
	SimCycles               int64   `json:"sim_cycles"`
	SimThreadInstructions   int64   `json:"sim_thread_instructions"`
	ScaleFactor             float64 `json:"scale_factor"`
	TotalThreadInstructions int64   `json:"total_thread_instructions"`

	OpCounts   []int64 `json:"op_counts"`
	TypeCounts []int64 `json:"type_counts"`
	Stalls     []int64 `json:"stalls"`

	L1       cache.Stats     `json:"l1"`
	L2       cache.Stats     `json:"l2"`
	DRAM     dram.Stats      `json:"dram"`
	Activity gpusim.Activity `json:"activity"`

	MaxResidentWarpsPerSM int `json:"max_resident_warps_per_sm"`
	AllocatedRegsPerSM    int `json:"allocated_regs_per_sm"`
	LiveRegsPerSM         int `json:"live_regs_per_sm"`
}

// Encode serializes one run under its composite key into the versioned
// record format.
func Encode(key string, rs *target.RunStats) ([]byte, error) {
	if rs == nil {
		return nil, errors.New("distcache: nil RunStats")
	}
	r := record{
		Format:       FormatVersion,
		Key:          key,
		NumOpcodes:   int(isa.NumOpcodes),
		NumDTypes:    int(isa.NumDTypes),
		NumStalls:    int(gpusim.NumStallReasons),
		Network:      rs.Network,
		Target:       rs.Target,
		Class:        rs.Class.String(),
		Cycles:       rs.Cycles,
		Seconds:      rs.Seconds,
		Instructions: rs.Instructions,
		PeakWatts:    rs.PeakWatts,
		AvgWatts:     rs.AvgWatts,
		EnergyJoules: rs.EnergyJoules,
		L2MissRatio:  rs.L2MissRatio,
		FPGA:         rs.FPGA,
	}
	if rs.GPU != nil {
		r.GPU = make([]kernelRecord, len(rs.GPU.Kernels))
		for i, ks := range rs.GPU.Kernels {
			kr := kernelRecord{
				Cycles:                  ks.Cycles,
				Seconds:                 ks.Seconds,
				SimCycles:               ks.SimCycles,
				SimThreadInstructions:   ks.SimThreadInstructions,
				ScaleFactor:             ks.ScaleFactor,
				TotalThreadInstructions: ks.TotalThreadInstructions,
				OpCounts:                ks.OpCounts[:],
				TypeCounts:              ks.TypeCounts[:],
				Stalls:                  ks.Stalls[:],
				L1:                      ks.L1,
				L2:                      ks.L2,
				DRAM:                    ks.DRAM,
				Activity:                ks.Activity,
				MaxResidentWarpsPerSM:   ks.MaxResidentWarpsPerSM,
				AllocatedRegsPerSM:      ks.AllocatedRegsPerSM,
				LiveRegsPerSM:           ks.LiveRegsPerSM,
			}
			if ks.Kernel != nil {
				kr.Layer = ks.Kernel.LayerName
				kr.Class = ks.Kernel.Class
			}
			r.GPU[i] = kr
		}
	}
	return json.Marshal(&r)
}

// Decode parses an encoded record, verifies it against the expected key
// and the trace it must describe, and rebinds the per-kernel statistics to
// the trace's kernels.  Any mismatch is an error; callers treat it as a
// cache miss.
func Decode(data []byte, key string, tr *target.Trace) (*target.RunStats, error) {
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("distcache: corrupt record: %w", err)
	}
	if r.Format != FormatVersion {
		return nil, fmt.Errorf("distcache: record format %d, want %d", r.Format, FormatVersion)
	}
	if r.NumOpcodes != int(isa.NumOpcodes) || r.NumDTypes != int(isa.NumDTypes) || r.NumStalls != int(gpusim.NumStallReasons) {
		return nil, fmt.Errorf("distcache: record enum dimensions (%d,%d,%d) do not match this build (%d,%d,%d)",
			r.NumOpcodes, r.NumDTypes, r.NumStalls, isa.NumOpcodes, isa.NumDTypes, gpusim.NumStallReasons)
	}
	if r.Key != key {
		return nil, fmt.Errorf("distcache: record key %q does not match %q", r.Key, key)
	}
	if tr == nil {
		return nil, errors.New("distcache: nil trace")
	}
	if r.Network != tr.Network {
		return nil, fmt.Errorf("distcache: record network %q does not match trace %q", r.Network, tr.Network)
	}
	class := device.ClassGPU
	if r.Class == device.ClassFPGA.String() {
		class = device.ClassFPGA
	} else if r.Class != device.ClassGPU.String() {
		return nil, fmt.Errorf("distcache: unknown device class %q", r.Class)
	}
	rs := &target.RunStats{
		Network:      r.Network,
		Target:       r.Target,
		Class:        class,
		Cycles:       r.Cycles,
		Seconds:      r.Seconds,
		Instructions: r.Instructions,
		PeakWatts:    r.PeakWatts,
		AvgWatts:     r.AvgWatts,
		EnergyJoules: r.EnergyJoules,
		L2MissRatio:  r.L2MissRatio,
		FPGA:         r.FPGA,
	}
	if r.GPU != nil {
		if len(r.GPU) != len(tr.Kernels) {
			return nil, fmt.Errorf("distcache: record has %d kernels, trace has %d", len(r.GPU), len(tr.Kernels))
		}
		run := &gpusim.RunStats{Network: r.Network, Kernels: make([]*gpusim.KernelStats, len(r.GPU))}
		for i := range r.GPU {
			kr := &r.GPU[i]
			if kr.Layer != tr.Kernels[i].LayerName {
				return nil, fmt.Errorf("distcache: record kernel %d is %q, trace has %q", i, kr.Layer, tr.Kernels[i].LayerName)
			}
			if len(kr.OpCounts) != int(isa.NumOpcodes) || len(kr.TypeCounts) != int(isa.NumDTypes) || len(kr.Stalls) != int(gpusim.NumStallReasons) {
				return nil, fmt.Errorf("distcache: record kernel %d has malformed counter arrays", i)
			}
			ks := &gpusim.KernelStats{
				Kernel:                  tr.Kernels[i],
				Cycles:                  kr.Cycles,
				Seconds:                 kr.Seconds,
				SimCycles:               kr.SimCycles,
				SimThreadInstructions:   kr.SimThreadInstructions,
				ScaleFactor:             kr.ScaleFactor,
				TotalThreadInstructions: kr.TotalThreadInstructions,
				L1:                      kr.L1,
				L2:                      kr.L2,
				DRAM:                    kr.DRAM,
				Activity:                kr.Activity,
				MaxResidentWarpsPerSM:   kr.MaxResidentWarpsPerSM,
				AllocatedRegsPerSM:      kr.AllocatedRegsPerSM,
				LiveRegsPerSM:           kr.LiveRegsPerSM,
			}
			copy(ks.OpCounts[:], kr.OpCounts)
			copy(ks.TypeCounts[:], kr.TypeCounts)
			copy(ks.Stalls[:], kr.Stalls)
			run.Kernels[i] = ks
		}
		rs.GPU = run
	}
	return rs, nil
}
