// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (BenchmarkTable1Models .. BenchmarkFig16AlexNetScheduler),
// plus native-inference and kernel-level micro-benchmarks and ablations of
// the simulator's sampling levels.
//
// The experiment benchmarks share one cached session, so the full simulation
// matrix (every network under every cache, scheduler and device
// configuration) is executed once per `go test -bench` invocation; repeated
// iterations re-render the tables from the cached runs.  Run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-versus-measured comparison of every
// experiment.
package tango_test

import (
	"fmt"
	"sync"
	"testing"

	"tango"
	"tango/internal/device"
	"tango/internal/gpusim"
	"tango/internal/kernel"
	"tango/internal/networks"
	"tango/internal/target"
)

// sharedSession caches simulation results across all experiment benchmarks.
var (
	sessionOnce   sync.Once
	sharedSession *tango.ExperimentSession
)

func experimentSession() *tango.ExperimentSession {
	sessionOnce.Do(func() {
		sharedSession = tango.NewExperimentSession()
	})
	return sharedSession
}

// benchmarkExperiment drives one experiment and reports its table size.
func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	s := experimentSession()
	var rows int
	for i := 0; i < b.N; i++ {
		tab, err := s.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(tab.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// Tables I-IV.

func BenchmarkTable1Models(b *testing.B)       { benchmarkExperiment(b, "table1") }
func BenchmarkTable2Devices(b *testing.B)      { benchmarkExperiment(b, "table2") }
func BenchmarkTable3KernelConfig(b *testing.B) { benchmarkExperiment(b, "table3") }
func BenchmarkTable4FPGA(b *testing.B)         { benchmarkExperiment(b, "table4") }

// Figures 1-16.

func BenchmarkFig1LayerTimeBreakdown(b *testing.B)    { benchmarkExperiment(b, "fig1") }
func BenchmarkFig2CacheSensitivity(b *testing.B)      { benchmarkExperiment(b, "fig2") }
func BenchmarkFig3PeakPower(b *testing.B)             { benchmarkExperiment(b, "fig3") }
func BenchmarkFig4LayerPower(b *testing.B)            { benchmarkExperiment(b, "fig4") }
func BenchmarkFig5ComponentPower(b *testing.B)        { benchmarkExperiment(b, "fig5") }
func BenchmarkFig6EdgeEnergy(b *testing.B)            { benchmarkExperiment(b, "fig6") }
func BenchmarkFig7StallBreakdown(b *testing.B)        { benchmarkExperiment(b, "fig7") }
func BenchmarkFig8OpBreakdown(b *testing.B)           { benchmarkExperiment(b, "fig8") }
func BenchmarkFig9TopOps(b *testing.B)                { benchmarkExperiment(b, "fig9") }
func BenchmarkFig10DataTypes(b *testing.B)            { benchmarkExperiment(b, "fig10") }
func BenchmarkFig11MemoryFootprint(b *testing.B)      { benchmarkExperiment(b, "fig11") }
func BenchmarkFig12RegisterUsage(b *testing.B)        { benchmarkExperiment(b, "fig12") }
func BenchmarkFig13L2Misses(b *testing.B)             { benchmarkExperiment(b, "fig13") }
func BenchmarkFig14L2MissRatio(b *testing.B)          { benchmarkExperiment(b, "fig14") }
func BenchmarkFig15SchedulerSensitivity(b *testing.B) { benchmarkExperiment(b, "fig15") }
func BenchmarkFig16AlexNetScheduler(b *testing.B)     { benchmarkExperiment(b, "fig16") }

// Native inference benchmarks: the benchmark suite's workloads executed with
// the pure-Go layer kernels (the CUDA-equivalent math path).

func benchmarkNativeCNN(b *testing.B, name string) {
	b.Helper()
	bm, err := tango.LoadBenchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	img, _, err := bm.SampleImage(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.Classify(img); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkNativeRNN(b *testing.B, name string) {
	b.Helper()
	bm, err := tango.LoadBenchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	hist, err := bm.SampleHistory(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.Forecast(hist); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferenceCifarNet(b *testing.B) { benchmarkNativeCNN(b, "CifarNet") }
func BenchmarkInferenceGRU(b *testing.B)      { benchmarkNativeRNN(b, "GRU") }
func BenchmarkInferenceLSTM(b *testing.B)     { benchmarkNativeRNN(b, "LSTM") }

// Simulation micro-benchmarks per device, exercising the simulator itself on
// one worker.  Simulate memoizes its runs, so every iteration gets a fresh
// store holding only the network's trace.

func benchmarkSimulate(b *testing.B, name string, opts ...tango.SimOption) {
	b.Helper()
	bm, err := tango.LoadBenchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	defer tango.SetSimulateStore(nil)
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := target.NewStore()
		if _, err := st.Trace(name); err != nil {
			b.Fatal(err)
		}
		tango.SetSimulateStore(st)
		b.StartTimer()
		res, err := bm.Simulate(append([]tango.SimOption{tango.WithParallelism(1)}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkSimulateCifarNetGP102(b *testing.B) {
	benchmarkSimulate(b, "CifarNet", tango.WithFastSampling())
}

func BenchmarkSimulateCifarNetTX1(b *testing.B) {
	benchmarkSimulate(b, "CifarNet", tango.WithDevice("TX1"), tango.WithFastSampling())
}

func BenchmarkSimulateLSTMExhaustive(b *testing.B) {
	benchmarkSimulate(b, "LSTM", tango.WithExhaustiveSimulation())
}

// Ablation: the effect of the simulator's sampling level on AlexNet's
// simulated cycle estimate (the DESIGN.md sampling ablation).

func BenchmarkAblationSamplingFast(b *testing.B) {
	benchmarkSimulate(b, "AlexNet", tango.WithFastSampling())
}

func BenchmarkAblationSamplingDefault(b *testing.B) {
	benchmarkSimulate(b, "AlexNet")
}

// Ablation: warp scheduler choice on AlexNet (Figure 15's headline case).

func BenchmarkAblationSchedulerGTO(b *testing.B) {
	benchmarkSimulate(b, "AlexNet", tango.WithFastSampling(), tango.WithScheduler("gto"))
}

func BenchmarkAblationSchedulerLRR(b *testing.B) {
	benchmarkSimulate(b, "AlexNet", tango.WithFastSampling(), tango.WithScheduler("lrr"))
}

func BenchmarkAblationSchedulerTLV(b *testing.B) {
	benchmarkSimulate(b, "AlexNet", tango.WithFastSampling(), tango.WithScheduler("tlv"))
}

// Ablation: L1D sizing on AlexNet (Figure 2's headline case).

func BenchmarkAblationNoL1(b *testing.B) {
	benchmarkSimulate(b, "AlexNet", tango.WithFastSampling(), tango.WithL1SizeKB(0))
}

func BenchmarkAblationL1Default(b *testing.B) {
	benchmarkSimulate(b, "AlexNet", tango.WithFastSampling(), tango.WithL1SizeKB(64))
}

func BenchmarkAblationL1Quadruple(b *testing.B) {
	benchmarkSimulate(b, "AlexNet", tango.WithFastSampling(), tango.WithL1SizeKB(256))
}

// Cycle-loop micro-benchmarks: a single CNN kernel and a single RNN kernel
// simulated directly through gpusim, isolating the simulator hot path from
// kernel generation and report rendering.

func loadKernel(b *testing.B, network string, pick func(*kernel.Kernel) bool) *kernel.Kernel {
	b.Helper()
	n, err := networks.New(network)
	if err != nil {
		b.Fatal(err)
	}
	ks, err := kernel.Generate(n)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range ks {
		if pick(k) {
			return k
		}
	}
	b.Fatalf("%s: no kernel matched", network)
	return nil
}

func benchmarkKernelSim(b *testing.B, k *kernel.Kernel) {
	b.Helper()
	sim, err := gpusim.New(gpusim.ConfigFor(device.PascalGP102()).WithSampling(gpusim.FastSampling()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		rs, err := sim.RunKernels(k.Network, []*kernel.Kernel{k})
		if err != nil {
			b.Fatal(err)
		}
		cycles = rs.Kernels[0].SimCycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// BenchmarkSimulateKernelCNN drives the cycle loop with AlexNet's first
// convolution, the archetypal compute-heavy CNN kernel.
func BenchmarkSimulateKernelCNN(b *testing.B) {
	benchmarkKernelSim(b, loadKernel(b, "AlexNet", func(k *kernel.Kernel) bool {
		return k.Class == networks.ClassConv
	}))
}

// BenchmarkSimulateKernelRNN drives the cycle loop with a GRU cell kernel,
// the suite's memory-dependency-bound RNN workload.
func BenchmarkSimulateKernelRNN(b *testing.B) {
	benchmarkKernelSim(b, loadKernel(b, "GRU", func(k *kernel.Kernel) bool {
		return k.Class == networks.ClassRNN
	}))
}

// Full fast-sampling experiment runs: every table and figure over all seven
// networks, serially and with the parallel execution engine.  Each iteration
// uses a fresh session with an isolated cache so the entire simulation
// matrix is recomputed — these measure the pipeline end to end.

func benchmarkRunAll(b *testing.B, opts ...tango.ExperimentOption) {
	b.Helper()
	opts = append([]tango.ExperimentOption{
		tango.WithFastExperimentSampling(), tango.WithIsolatedCache()}, opts...)
	var tables int
	for i := 0; i < b.N; i++ {
		out, err := tango.NewExperimentSession(opts...).RunAll()
		if err != nil {
			b.Fatal(err)
		}
		tables = len(out)
	}
	b.ReportMetric(float64(tables), "tables")
}

func BenchmarkRunAllFastSampling(b *testing.B) {
	benchmarkRunAll(b, tango.WithExperimentParallelism(1))
}

func BenchmarkRunAllFastSamplingParallel(b *testing.B) { benchmarkRunAll(b) }

// BenchmarkRunAllFigures measures the trace-once/derive-many steady state:
// each iteration is a fresh session over the process-wide shared store, so
// after the first iteration every figure renders as a pure projection of
// cached runs — the repeated-report path `tango-char -exp all` users hit.
func BenchmarkRunAllFigures(b *testing.B) {
	var tables int
	for i := 0; i < b.N; i++ {
		out, err := tango.NewExperimentSession(tango.WithFastExperimentSampling()).RunAll()
		if err != nil {
			b.Fatal(err)
		}
		tables = len(out)
	}
	b.ReportMetric(float64(tables), "tables")
}

// Example of the public API used as documentation.
func ExampleBenchmarks() {
	fmt.Println(len(tango.Benchmarks()))
	// Output: 7
}
