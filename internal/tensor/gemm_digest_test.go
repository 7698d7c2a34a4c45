package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// gemmDigestsFile pins the bits of every float GEMM entry point on every rung
// the ladder has: key "<rung>/<entry point>".  The reference tier's digests
// agree across rungs by contract; the fast tier's differ per rung and are
// pinned only here, so a kernel rewrite that moves them fails this test
// rather than slipping under the tolerance tests.  UPDATE_GOLDEN=1 rewrites
// the keys of the rungs the host can force (only an intended numerics change
// does).
var gemmDigestsFile = filepath.Join("testdata", "gemm_digests.json")

// gemmDigestCases is the geometry table: every column count the tiles and
// the tail rules tell apart, each under four row counts (m%4 = 0..3, all
// at least two row tiles so the parallel entry points fork), depths below
// and across the 256-deep slab, and a row stride equal to or wider than n.
func gemmDigestCases() []struct{ m, n, k, ldb int } {
	var cases []struct{ m, n, k, ldb int }
	i := 0
	for _, n := range []int{1, 7, 8, 15, 16, 17, 31, 32, 33, 169, 217, 465, 512, 513} {
		for _, m := range []int{8, 9, 10, 11} {
			k := []int{3, 20, 300}[i%3]
			cases = append(cases, struct{ m, n, k, ldb int }{m, n, k, n + []int{0, 5}[i%2]})
			i++
		}
	}
	return cases
}

// TestFloatGemmDigestsPerRung hashes the outputs of GemmNN, GemmNNParallel,
// GemmNNAccumPanel, GemmNNFast, GemmNNFastParallel and GemmNNFastAccumPanel
// over the geometry table on each rung SetFastTier can force.  The parallel
// entry points run at 1 and 3 workers with every op forking; the panel
// entry points walk the FusedKC x FusedNC grid with and without spill slack
// past each panel.  Every hash covers the whole destination, so a gap column
// past n that a kernel writes moves it too.
func TestFloatGemmDigestsPerRung(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	pinned := map[string]string{}
	if data, err := os.ReadFile(gemmDigestsFile); err == nil {
		if err := json.Unmarshal(data, &pinned); err != nil {
			t.Fatal(err)
		}
	} else if !update {
		t.Fatal(err)
	}
	defer func(w int64) { ForkMinWork = w }(ForkMinWork)
	ForkMinWork = 0
	teams := []*Team{newTeam(1), newTeam(3)}
	cases := gemmDigestCases()
	forRungs(TierGeneric, func() {
		rung := FastTier().String()
		hs := map[string]hash.Hash{}
		for _, name := range []string{"GemmNN", "GemmNNParallel", "GemmNNAccumPanel", "GemmNNFast", "GemmNNFastParallel", "GemmNNFastAccumPanel"} {
			hs[name] = sha256.New()
		}
		for ci, c := range cases {
			r := NewRNG(uint64(1000 + ci))
			a, b, bias := make([]float32, c.m*c.k), make([]float32, c.k*c.ldb), make([]float32, c.m)
			fillRand(r, a)
			fillRand(r, b)
			fillRand(r, bias)
			pa := PackA(a, c.m, c.k)
			run := func(name string, gemm func(dst []float32)) {
				dst := make([]float32, c.m*c.ldb)
				for i := range dst {
					dst[i] = 7
				}
				gemm(dst)
				hashFloats(hs[name], dst)
			}
			run("GemmNN", func(dst []float32) { GemmNN(dst, a, b, bias, c.m, c.n, c.k, c.ldb) })
			run("GemmNNFast", func(dst []float32) { GemmNNFast(dst, pa, b, bias, c.n, c.ldb) })
			for _, tm := range teams {
				run("GemmNNParallel", func(dst []float32) { GemmNNParallel(dst, a, b, bias, c.m, c.n, c.k, c.ldb, tm) })
				run("GemmNNFastParallel", func(dst []float32) { GemmNNFastParallel(dst, pa, b, bias, c.n, c.ldb, tm) })
			}
			for _, slack := range []int{0, 16} {
				panels := func(dst []float32, accum func(dst, panel []float32, kb, kc, nc int)) {
					for p0 := 0; p0 < c.n; p0 += FusedNC {
						nc := min(c.n-p0, FusedNC)
						for kb := 0; kb < c.k; kb += FusedKC {
							kc := min(c.k-kb, FusedKC)
							panel := make([]float32, kc*nc, kc*nc+slack)
							for l := 0; l < kc; l++ {
								copy(panel[l*nc:(l+1)*nc], b[(kb+l)*c.ldb+p0:])
							}
							accum(dst[p0:], panel, kb, kc, nc)
						}
					}
				}
				run("GemmNNAccumPanel", func(dst []float32) {
					panels(dst, func(dst, panel []float32, kb, kc, nc int) {
						GemmNNAccumPanel(dst, a, panel, bias, c.k, kb, kc, nc, c.ldb, 0, c.m)
					})
				})
				run("GemmNNFastAccumPanel", func(dst []float32) {
					panels(dst, func(dst, panel []float32, kb, kc, nc int) {
						GemmNNFastAccumPanel(dst, pa, panel, bias, kb, kc, nc, c.ldb)
					})
				})
			}
		}
		for name, h := range hs {
			key := rung + "/" + name
			got := hex.EncodeToString(h.Sum(nil))
			if update {
				pinned[key] = got
			}
			if want := pinned[key]; got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
			}
		}
	})
	if update {
		data, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gemmDigestsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func hashFloats(h hash.Hash, data []float32) {
	var buf [4]byte
	for _, v := range data {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
}
