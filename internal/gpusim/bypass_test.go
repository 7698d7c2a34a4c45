package gpusim_test

import (
	"testing"

	"tango/internal/device"
	"tango/internal/gpusim"
	"tango/internal/kernel"
	"tango/internal/networks"
)

// fc6Kernel returns AlexNet's first fully-connected kernel, the suite's most
// memory-intensive streaming workload.
func fc6Kernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	n, err := networks.NewAlexNet()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := kernel.Generate(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if k.LayerName == "fc6" {
			return k
		}
	}
	t.Fatal("fc6 kernel not found")
	return nil
}

func TestBypassedL1ThrottlesStreamingKernels(t *testing.T) {
	// Without an L1 the finite LSU/interconnect queues must throttle the
	// streaming fully-connected kernel: memory_throttle stalls appear and the
	// warps spend most of their time waiting on memory.
	cfg := gpusim.ConfigFor(device.PascalGP102()).WithSampling(gpusim.FastSampling()).WithL1Size(0)
	sim, err := gpusim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := runKernel(sim, fc6Kernel(t))
	if err != nil {
		t.Fatal(err)
	}
	memStalls := st.Stalls[gpusim.StallMemoryThrottle] + st.Stalls[gpusim.StallMemoryDependency]
	if memStalls == 0 {
		t.Error("streaming FC kernel without L1 should stall on memory")
	}
	if st.L1.Accesses != 0 {
		t.Error("bypassed L1 must not record accesses")
	}
	if st.L2.Accesses == 0 {
		t.Error("bypassed L1 must route traffic to the L2")
	}
}

func TestFCInsensitiveToL1Sizing(t *testing.T) {
	// The streaming FC kernel has no reuse, so growing the L1 from the
	// default to 4x should change its time very little — this is the flat
	// portion of the Figure 2 curves.
	run := func(l1 int) int64 {
		cfg := gpusim.ConfigFor(device.PascalGP102()).WithSampling(gpusim.FastSampling()).WithL1Size(l1)
		sim, err := gpusim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := runKernel(sim, fc6Kernel(t))
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	base := run(64 << 10)
	big := run(256 << 10)
	diff := float64(base-big) / float64(base)
	if diff > 0.25 || diff < -0.25 {
		t.Errorf("fc6 should be nearly insensitive to L1 size, got %.1f%% change", diff*100)
	}
}
