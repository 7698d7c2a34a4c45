package gpusim_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tango/internal/device"
	"tango/internal/gpusim"
	"tango/internal/kernel"
	"tango/internal/networks"
	"tango/internal/sched"
)

// TestSimStatsGolden pins every field of every KernelStats, at full
// precision, across the schedulers, devices and L1 modes the figure goldens
// only cover after rounding.  testdata/simstats.golden was generated by the
// loop this one replaced and is the contract a simulator-speed change must
// keep: regenerate it (UPDATE_GOLDEN=1) only for an intended model change.
func TestSimStatsGolden(t *testing.T) {
	nets := []string{"CifarNet", "AlexNet", "GRU", "LSTM"}
	// The heavy half of the suite (and the MobileNet extension), whose layers
	// repeat under different names, is pinned on the paper's default device
	// and scheduler only.
	heavy := []string{"SqueezeNet", "ResNet", "VGGNet", "MobileNet"}
	if testing.Short() {
		nets, heavy = []string{"CifarNet", "GRU", "LSTM"}, nil
	}
	kernels := make(map[string][]*kernel.Kernel)
	for _, name := range slices.Concat(nets, heavy) {
		n, err := networks.New(name)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := kernel.Generate(n)
		if err != nil {
			t.Fatal(err)
		}
		kernels[name] = ks
	}

	type cell struct {
		name string
		net  string
		cfg  gpusim.Config
	}
	var cells []cell
	devices := []struct {
		name string
		dev  device.GPU
	}{{"gp102", device.PascalGP102()}, {"tx1", device.TX1()}, {"gk210", device.GK210()}}
	l1s := []struct {
		name  string
		apply func(gpusim.Config) gpusim.Config
	}{
		{"l1-default", func(c gpusim.Config) gpusim.Config { return c }},
		{"l1-bypassed", func(c gpusim.Config) gpusim.Config { return c.WithL1Size(0) }},
		{"l1-16k", func(c gpusim.Config) gpusim.Config { return c.WithL1Size(16 << 10) }},
	}
	for _, net := range nets {
		for _, d := range devices {
			for _, k := range sched.Kinds() {
				for _, l1 := range l1s {
					cfg := l1.apply(gpusim.ConfigFor(d.dev)).WithScheduler(k).WithSampling(gpusim.FastSampling())
					cells = append(cells, cell{fmt.Sprintf("%s/%s/%s/%s/fast", net, d.name, k, l1.name), net, cfg})
				}
			}
		}
	}
	// Sampling levels other than the fast one.  Residency sets a floor under
	// the sampled CTAs, so only the larger level runs several CTA waves per
	// SM (on conv1, pool1 and conv2): compaction followed by relaunch.
	for _, s := range []gpusim.Sampling{{MaxCTAs: 3, MaxLoopIters: 5}, {MaxCTAs: 24, MaxLoopIters: 5}} {
		for _, k := range sched.Kinds() {
			for _, l1 := range l1s[:2] {
				cfg := l1.apply(gpusim.ConfigFor(device.PascalGP102())).WithScheduler(k).WithSampling(s)
				name := fmt.Sprintf("CifarNet/gp102/%s/%s/ctas%d-iters%d", k, l1.name, s.MaxCTAs, s.MaxLoopIters)
				cells = append(cells, cell{name, "CifarNet", cfg})
			}
		}
	}
	// Issue widths other than the default two.
	for _, k := range sched.Kinds() {
		narrow := gpusim.ConfigFor(device.PascalGP102()).WithScheduler(k).WithSampling(gpusim.FastSampling())
		narrow.IssueWidth = 1
		cells = append(cells, cell{fmt.Sprintf("CifarNet/gp102/%s/l1-default/issue1", k), "CifarNet", narrow})
		wide := narrow
		wide.IssueWidth = 4
		wide.ModeledSMs = 3
		cells = append(cells, cell{fmt.Sprintf("CifarNet/gp102/%s/l1-default/issue4-sms3", k), "CifarNet", wide})
	}

	// More resident warps per SM than one or two 64-bit words hold.
	for _, k := range sched.Kinds() {
		for _, l1 := range l1s[:2] {
			cfg := l1.apply(gpusim.ConfigFor(device.PascalGP102())).WithScheduler(k).WithSampling(gpusim.FastSampling())
			cfg.Device.MaxWarpsPerSM = 160
			cells = append(cells, cell{fmt.Sprintf("CifarNet/gp102/%s/%s/warps160", k, l1.name), "CifarNet", cfg})
		}
	}

	for _, net := range heavy {
		cfg := gpusim.ConfigFor(device.PascalGP102()).WithSampling(gpusim.FastSampling())
		cells = append(cells, cell{fmt.Sprintf("%s/gp102/gto/l1-default/fast", net), net, cfg})
	}

	got := make(map[string]string, len(cells))
	var order []string
	for _, c := range cells {
		sim, err := gpusim.New(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rs, err := sim.RunKernels(c.net, kernels[c.net])
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		var simCycles int64
		for _, ks := range rs.Kernels {
			flat := *ks
			flat.Kernel = nil
			fmt.Fprintf(h, "%+v\n", flat)
			simCycles += ks.SimCycles
		}
		got[c.name] = fmt.Sprintf("%x %d", h.Sum(nil), simCycles)
		order = append(order, c.name)
	}

	golden := filepath.Join("testdata", "simstats.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if testing.Short() {
			t.Fatal("UPDATE_GOLDEN needs the full matrix; run without -short")
		}
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = digest
	}
	if !testing.Short() && len(want) != len(got) {
		t.Errorf("golden holds %d configurations, the test runs %d", len(want), len(got))
	}
	for _, name := range order {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in %s", name, golden)
			continue
		}
		if got[name] != w {
			t.Errorf("%s: simulated statistics drifted\n got  %s\n want %s", name, got[name], w)
		}
	}
}
