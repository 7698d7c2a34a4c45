package networks_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tango/internal/nn"
	"tango/internal/tensor"
)

// The int8 tier's outputs are pinned exactly: integer accumulation is exact
// and the quantizer's float arithmetic is fixed operation for operation, so
// every SIMD rung and every worker fan-out must produce the same float32
// bits.  int8DigestsFile holds the SHA-256 of each network's batched output
// (key "<name>"), of its single-sample Plan.Run output (key "<name>/run":
// a single-sample fully-connected layer runs the mat-vec, whose dequantize
// differs from the GEMM's, so a Run that slipped onto the GEMM moves it) and
// of that run's logits, the layer feeding Softmax (key "<name>/logits": a
// saturated classifier's softmax is one-hot and pins only its class);
// UPDATE_GOLDEN=1 regenerates it (only an intended numerics change does).
var int8DigestsFile = filepath.Join("testdata", "int8_digests.json")

// TestInt8DigestsAllRungs runs every CNN (the recurrent gates have no int8
// lowering) under each forced SIMD rung and at 1 and 4 workers against the
// committed digests: RunBatch of int8Seed.. at batch 8 for AlexNet and 3
// for the others, and Run of int8Seed.  -short drops the two heavy networks
// and keeps the generic rung to CifarNet.
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
	ladder := rungs(t)
	forNets(t, []string{"CifarNet", "AlexNet", "SqueezeNet", "ResNet", "VGGNet", "MobileNet"}, func(t *testing.T, f *fixture) {
		name, heavy := f.net.Name, f.net.Name == "ResNet" || f.net.Name == "VGGNet"
		batch := 3
		if name == "AlexNet" {
			batch = 8
		}
		for _, rung := range ladder {
			if rung == tensor.TierGeneric && testing.Short() && name != "CifarNet" {
				// The portable loops take minutes on the larger networks
				// under the race detector, which runs with -short.
				continue
			}
			for _, workers := range []int{1, 4} {
				if heavy && rung == tensor.TierGeneric && workers == 1 {
					continue // a minute of portable-loop VGGNet; the light networks cover it
				}
				// Each rung runs on its own plan, so the weights pack on that rung too.
				b, one := batchOf(nn.NumericsInt8, workers, int8Seed, batch), single(nn.NumericsInt8, workers, int8Seed)
				b.rung, one.rung = rung, rung
				batched, run := f.out(t, b), f.out(t, one)
				for key, got := range map[string]string{
					name:             digest(nil, batched.out),
					name + "/run":    digest(nil, run.out),
					name + "/logits": digest(nil, run.logits),
				} {
					if update && rung == tensor.TierGeneric {
						pinned[key] = got
					}
					if want := pinned[key]; got != want {
						t.Fatalf("%v rung, %d workers: %s output digest %s, want %s", rung, workers, key, got, want)
					}
				}
			}
		}
	})
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
