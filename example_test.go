package tango_test

import (
	"fmt"

	"tango"
)

// Example is the package documentation's example: classify a sample
// natively, simulate the same network with a 128KB L1D and the LRR warp
// scheduler, and render Figure 2 for one network.
func Example() {
	suite := tango.NewSuite()
	b, _ := suite.Benchmark("CifarNet")
	cls, _ := b.ClassifySample(42)
	sim, _ := b.Simulate(tango.WithL1SizeKB(128), tango.WithScheduler("lrr"), tango.WithFastSampling())
	fmt.Println(cls.Class, sim.Cycles)

	table, _ := tango.RunExperiment("fig2", tango.WithFastExperimentSampling(), tango.WithNetworks("GRU"))
	fmt.Print(table.CSV())
	// Output:
	// 1 314279
	// Network,No L1 (cycles),No L1,L1,2xL1,4xL1
	// GRU,120454,1.000,0.792,0.792,0.792
}
