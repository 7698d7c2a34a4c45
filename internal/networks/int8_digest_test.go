package networks_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tango/internal/networks"
	"tango/internal/nn"
	"tango/internal/tensor"
	"tango/internal/weights"
)

// The int8 tier's outputs are pinned exactly: integer accumulation is exact
// and the quantizer's float arithmetic is fixed operation for operation, so
// every SIMD rung and every worker fan-out must produce the same float32
// bits.  int8DigestsFile holds the SHA-256 of each network's batched output;
// UPDATE_GOLDEN=1 regenerates it (only an intended numerics change does).
var int8DigestsFile = filepath.Join("testdata", "int8_digests.json")

// int8DigestCases lists every CNN in the registry (the recurrent gates have
// no int8 lowering) with the batch size its digest is taken at.
var int8DigestCases = []struct {
	name  string
	batch int
	heavy bool
}{
	{"AlexNet", 8, false},
	{"CifarNet", 3, false},
	{"SqueezeNet", 3, false}, // 1x1 and strided convolutions
	{"MobileNet", 3, false},  // depthwise groups
	{"ResNet", 3, true},
	{"VGGNet", 3, true},
}

// int8Rung is one forced rung of the SIMD ladder and its name in the log.
type int8Rung struct {
	tier  tensor.SIMDTier
	label string
}

func digestFloats(data []float32) string {
	h := sha256.New()
	var buf [4]byte
	for _, v := range data {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestInt8DigestsAllRungs runs every CNN's int8 RunBatch under each forced
// SIMD rung and at 1 and 4 workers against the committed digests.  -short
// drops the two heavy networks and keeps the generic rung to CifarNet.
func TestInt8DigestsAllRungs(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	pinned := map[string]string{}
	if data, err := os.ReadFile(int8DigestsFile); err == nil {
		if err := json.Unmarshal(data, &pinned); err != nil {
			t.Fatal(err)
		}
	} else if !update {
		t.Fatal(err)
	}
	detected := tensor.DetectedTier()
	t.Cleanup(func() { tensor.SetFastTier(detected) })
	var rungs []int8Rung
	for _, r := range []int8Rung{{tensor.TierGeneric, "generic"}, {tensor.TierFMA, "FMA"}, {tensor.TierAVX512, "AVX-512"}} {
		if r.tier > detected {
			t.Logf("%s rung not available, skipped (detected tier: %v)", r.label, detected)
			continue
		}
		t.Logf("%s rung exercised", r.label)
		rungs = append(rungs, r)
	}
	for _, c := range int8DigestCases {
		if c.heavy && testing.Short() {
			t.Logf("skipping %s in -short mode", c.name)
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			n, err := networks.New(c.name)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := weights.Synthesize(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, rung := range rungs {
				if rung.tier == tensor.TierGeneric && testing.Short() && c.name != "CifarNet" {
					// The portable loops take minutes on the larger networks
					// under the race detector, which runs with -short.
					continue
				}
				tensor.SetFastTier(rung.tier)
				// A plan per rung, so the weights are packed on that rung too.
				p, err := n.NewPlan(ws)
				if err != nil {
					t.Fatal(err)
				}
				batch := cnnBatch(p, 57, c.batch)
				for _, workers := range []int{1, 4} {
					if c.heavy && rung.tier == tensor.TierGeneric && workers == 1 {
						continue // a minute of portable-loop VGGNet; the light networks cover it
					}
					s := numericsScratch(nn.NumericsInt8)
					s.SetWorkers(workers)
					res, err := p.RunBatch(batch, s)
					if err != nil {
						t.Fatal(err)
					}
					got := digestFloats(res.Output.Data())
					if update && rung.tier == tensor.TierGeneric {
						pinned[c.name] = got
					}
					if want := pinned[c.name]; got != want {
						t.Fatalf("%s rung, %d workers: output digest %s, want %s", rung.label, workers, got, want)
					}
				}
			}
		})
	}
	if update {
		data, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(int8DigestsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
