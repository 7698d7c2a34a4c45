package gpusim

import (
	"slices"
	"testing"

	"tango/internal/device"
	"tango/internal/kernel"
	"tango/internal/networks"
)

// BenchmarkRunKernels times one cold gp102/gto cell at fast sampling — what a
// sweep pays per (network, GPU target) — and reports the host time per
// simulated warp instruction of the statistics returned, and how many of the
// network's kernels are distinct simulations.
func BenchmarkRunKernels(b *testing.B) {
	for _, name := range []string{"CifarNet", "AlexNet", "ResNet"} {
		b.Run(name, func(b *testing.B) {
			n, err := networks.New(name)
			if err != nil {
				b.Fatal(err)
			}
			ks, err := kernel.Generate(n)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := New(ConfigFor(device.PascalGP102()).WithSampling(FastSampling()))
			if err != nil {
				b.Fatal(err)
			}
			distinct := 0
			for i, k := range ks {
				if !slices.ContainsFunc(ks[:i], func(e *kernel.Kernel) bool { return sameSimulation(e, k) }) {
					distinct++
				}
			}
			var warpInstrs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := sim.RunKernels(name, ks)
				if err != nil {
					b.Fatal(err)
				}
				warpInstrs = 0
				for _, st := range rs.Kernels {
					warpInstrs += st.SimThreadInstructions / warpSize
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(warpInstrs), "ns/warp-instr")
			b.ReportMetric(float64(distinct), "distinct-kernels")
			b.ReportMetric(float64(len(ks)), "kernels")
		})
	}
}
