// Command tango-run executes one benchmark of the suite, either natively
// (the pure-Go equivalent of the CUDA kernels) or on the GPU architecture
// simulator, and prints a summary.
//
// Usage:
//
//	tango-run -benchmark CifarNet                 # native inference
//	tango-run -benchmark AlexNet -numerics int8   # native, int8 quantized tier
//	tango-run -benchmark AlexNet -simulate        # simulate on the GP102 model
//	tango-run -benchmark AlexNet -simulate -device TX1 -l1kb 128 -scheduler lrr
//	tango-run -list                               # list benchmarks
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"tango"
	"tango/internal/nn"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list the available benchmarks and exit")
		name      = flag.String("benchmark", "CifarNet", "benchmark to run")
		simulate  = flag.Bool("simulate", false, "run on the architecture simulator instead of natively")
		deviceStr = flag.String("device", "GP102", "simulated device: GP102, GK210 or TX1")
		l1kb      = flag.Int("l1kb", -1, "simulated L1D size in KB (0 bypasses the L1, -1 keeps the device default)")
		scheduler = flag.String("scheduler", "gto", "warp scheduler: gto, lrr or tlv")
		parallel  = flag.Int("parallel", 0, "worker goroutines for native inference or kernel simulation (0 = one per CPU)")
		batch     = flag.Int("batch", 1, "native inference batch size: run N samples through the engine in one batched pass")
		fast      = flag.Bool("fast", false, "use coarse simulation sampling")
		numerics  = flag.String("numerics", "", "native inference numerics tier: reference (bit-exact), fast (packed weights, FMA/AVX-512 kernels; top-1 preserved, not bit-exact) or int8 (quantized, the fast tier's accuracy contract); empty takes TANGO_NUMERICS, else reference")
		seed      = flag.Uint64("seed", 1, "seed for the synthetic sample input")
		verbose   = flag.Bool("v", false, "print per-layer detail")
	)
	flag.Parse()

	if *list {
		fmt.Println("Benchmarks in the Tango suite:")
		for _, n := range tango.Benchmarks() {
			fmt.Printf("  %s\n", n)
		}
		return
	}

	if *simulate && *batch > 1 {
		fatal(fmt.Errorf("-batch applies to native inference only; drop -simulate to run a batched pass"))
	}
	if *simulate && *numerics != "" {
		fatal(fmt.Errorf("-numerics applies to native inference only; the simulator models reference numerics"))
	}
	numOpts, err := numericsOpts(*numerics)
	if err != nil {
		fatal(err)
	}

	b, err := tango.LoadBenchmark(*name)
	if err != nil {
		fatal(err)
	}
	desc, err := b.Describe()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s (%s): %d layers, %d parameters, input %v\n",
		desc.Name, desc.Kind, desc.Layers, desc.Parameters, desc.InputShape)

	if *simulate {
		runSimulated(b, *deviceStr, *l1kb, *scheduler, *parallel, *fast, *verbose)
		return
	}
	if *batch > 1 {
		runNativeBatch(b, *seed, *batch, append(numOpts, tango.WithParallelism(*parallel)))
		return
	}
	runNative(b, *seed, *verbose, append(numOpts, tango.WithParallelism(*parallel)))
}

// numericsOpts maps the -numerics flag to inference options; an empty flag
// passes none, leaving the tier to TANGO_NUMERICS.
func numericsOpts(name string) ([]tango.SimOption, error) {
	if name == "" {
		return nil, nil
	}
	mode, err := nn.ParseNumerics(name)
	switch {
	case err != nil:
		return nil, fmt.Errorf("-numerics: %w", err)
	case mode == nn.NumericsFast:
		return []tango.SimOption{tango.WithFastMath()}, nil
	case mode == nn.NumericsInt8:
		return []tango.SimOption{tango.WithInt8()}, nil
	}
	return []tango.SimOption{tango.WithReferenceNumerics()}, nil
}

// runNativeBatch pushes a batch of sample inputs through the engine in one
// batched pass and reports per-sample results plus sustained throughput.
func runNativeBatch(b *tango.Benchmark, seed uint64, batch int, opts []tango.SimOption) {
	switch b.Kind() {
	case "CNN":
		// Synthesize the inputs outside the timed region so images/sec
		// reports engine throughput, matching the RNN branch.
		images := make([][]float32, batch)
		for i := range images {
			img, _, err := b.SampleImage(seed + uint64(i))
			if err != nil {
				fatal(err)
			}
			images[i] = img
		}
		start := time.Now()
		res, err := b.ClassifyBatch(images, opts...)
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		for i, r := range res {
			fmt.Printf("sample %2d: predicted class %d (p=%.4f)\n", i, r.Class, r.Probabilities[r.Class])
		}
		fmt.Printf("batched inference: %d images in %v (%.2f images/sec)\n",
			batch, elapsed.Round(time.Millisecond), float64(batch)/elapsed.Seconds())
	default:
		histories := make([][]float64, batch)
		for i := range histories {
			h, err := b.SampleHistory(seed + uint64(i))
			if err != nil {
				fatal(err)
			}
			histories[i] = h
		}
		start := time.Now()
		preds, err := b.ForecastBatch(histories, opts...)
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		for i, p := range preds {
			fmt.Printf("sequence %2d: predicted next value %.4f\n", i, p)
		}
		fmt.Printf("batched inference: %d sequences in %v (%.0f forecasts/sec)\n",
			batch, elapsed.Round(time.Microsecond), float64(batch)/elapsed.Seconds())
	}
}

func runNative(b *tango.Benchmark, seed uint64, verbose bool, opts []tango.SimOption) {
	switch b.Kind() {
	case "CNN":
		res, err := b.ClassifySample(seed, opts...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("native inference: predicted class %d (p=%.4f)\n",
			res.Class, res.Probabilities[res.Class])
		if verbose {
			layers := b.Layers()
			for _, l := range layers {
				fmt.Printf("  %-28s %8d activations\n", l, res.LayerActivations[l])
			}
		}
	default:
		hist, err := b.SampleHistory(seed)
		if err != nil {
			fatal(err)
		}
		pred, err := b.Forecast(hist, opts...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("native inference: history %v -> predicted next value %.4f\n", hist, pred)
	}
}

func runSimulated(b *tango.Benchmark, device string, l1kb int, scheduler string, parallel int, fast, verbose bool) {
	opts := []tango.SimOption{
		tango.WithDevice(device),
		tango.WithScheduler(scheduler),
		tango.WithParallelism(parallel),
	}
	if l1kb >= 0 {
		opts = append(opts, tango.WithL1SizeKB(l1kb))
	}
	if fast {
		opts = append(opts, tango.WithFastSampling())
	}
	res, err := b.Simulate(opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("simulated on %s: %d cycles (%.3f ms), %d instructions\n",
		res.Device, res.Cycles, res.Seconds*1e3, res.Instructions)
	fmt.Printf("power: peak %.1f W, average %.1f W, energy %.4f J\n",
		res.PeakWatts, res.AvgWatts, res.EnergyJoules)
	fmt.Printf("L2 miss ratio %.4f, integer-type instruction share %.1f%%, max registers %.1f KB/SM\n",
		res.L2MissRatio, res.IntegerTypeShare*100, res.MaxRegisterKBPerSM)

	fmt.Println("cycles by layer type:")
	classes := make([]string, 0, len(res.CyclesByLayerClass))
	for c := range res.CyclesByLayerClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool {
		return res.CyclesByLayerClass[classes[i]] > res.CyclesByLayerClass[classes[j]]
	})
	for _, c := range classes {
		fmt.Printf("  %-14s %12d (%.1f%%)\n", c, res.CyclesByLayerClass[c],
			100*float64(res.CyclesByLayerClass[c])/float64(res.Cycles))
	}
	if verbose {
		fmt.Println("per-layer detail:")
		for _, l := range res.Layers {
			fmt.Printf("  %-28s %-12s %12d cycles  %7.1f W  L2 miss %.4f\n",
				l.Layer, l.Class, l.Cycles, l.PowerWatts, l.L2MissRatio)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tango-run:", err)
	os.Exit(1)
}
