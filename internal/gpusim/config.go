// Package gpusim is a cycle-approximate GPU architecture simulator in the
// spirit of GPGPU-Sim: it executes the kernels produced by package kernel on
// a configurable number of streaming multiprocessors with warp schedulers,
// a scoreboard, per-SM L1 data caches, a shared L2 and a DRAM model, and
// reports cycles, stall-cycle breakdowns, cache statistics and activity
// counters for the power model.
//
// Full cycle simulation of every thread of the large CNNs is intractable, so
// the simulator samples: it executes a bounded number of thread blocks and a
// bounded number of iterations of each inner loop in detail and scales the
// resulting statistics to the full kernel (see Sampling).
package gpusim

import (
	"fmt"

	"tango/internal/cache"
	"tango/internal/device"
	"tango/internal/dram"
	"tango/internal/sched"
)

// Sampling bounds the detailed simulation per kernel.
type Sampling struct {
	// MaxCTAs is the maximum number of thread blocks simulated in detail per
	// kernel (0 = all blocks).
	MaxCTAs int
	// MaxLoopIters is the maximum number of iterations of each program loop
	// simulated in detail (0 = all iterations).
	MaxLoopIters int
}

// DefaultSampling is the characterization-grade sampling level.
func DefaultSampling() Sampling { return Sampling{MaxCTAs: 4, MaxLoopIters: 32} }

// FastSampling is a coarser level for quick runs and unit tests.
func FastSampling() Sampling { return Sampling{MaxCTAs: 2, MaxLoopIters: 8} }

// Exhaustive disables sampling entirely.
func Exhaustive() Sampling { return Sampling{} }

// Config describes one simulation setup.
type Config struct {
	// Device is the simulated GPU (clock, SM count, cache sizes, bandwidth).
	Device device.GPU
	// ModeledSMs is the number of SMs simulated in detail; statistics are
	// scaled to the device's full SM count.  Zero selects a default.
	ModeledSMs int
	// MaxCTAsPerSM is the number of thread blocks kept resident per modeled
	// SM when the device does not bound warps per SM.  Devices that set
	// MaxWarpsPerSM instead derive residency from their warp capacity (up to
	// the hardware limit of 32 blocks), matching real occupancy behaviour.
	MaxCTAsPerSM int
	// IssueWidth is the number of instructions each SM may issue per cycle.
	IssueWidth int
	// Scheduler selects the warp scheduler (gto, lrr, tlv).
	Scheduler sched.Kind
	// L1D is the per-SM L1 data cache; a zero SizeBytes bypasses it.
	L1D cache.Config
	// L2 is the shared L2 cache.
	L2 cache.Config
	// DRAM is the memory system model.
	DRAM dram.Config
	// Sampling bounds detailed execution.
	Sampling Sampling
	// Parallelism is the number of worker goroutines RunKernels uses to
	// simulate independent kernels concurrently.  Zero or one selects serial
	// execution.  Results are identical to a serial run in either case.
	Parallelism int
}

// ConfigFor returns the paper's simulator setup for a GPU device: two
// modeled SMs, the device's own L1D, L2 and DRAM, and the GTO scheduler.
func ConfigFor(dev device.GPU) Config {
	return Config{
		Device:       dev,
		ModeledSMs:   2,
		MaxCTAsPerSM: 2,
		IssueWidth:   2,
		Scheduler:    sched.GTO,
		L1D:          cache.DefaultL1(dev.L1DBytes),
		L2:           cache.DefaultL2(dev.L2Bytes),
		DRAM:         dram.DefaultConfig(dev.MemBandwidthGBs, dev.CoreClockMHz),
		Sampling:     DefaultSampling(),
	}
}

// WithL1Size returns a copy of the config with the L1 data cache resized;
// size zero bypasses the L1 entirely (the paper's "No L1" configuration).
func (c Config) WithL1Size(bytes int) Config {
	c.L1D = cache.DefaultL1(bytes)
	if bytes == 0 {
		c.L1D = cache.Config{SizeBytes: 0}
	}
	return c
}

// WithScheduler returns a copy of the config using the given warp scheduler.
func (c Config) WithScheduler(kind sched.Kind) Config {
	c.Scheduler = kind
	return c
}

// WithSampling returns a copy of the config with the given sampling level.
func (c Config) WithSampling(s Sampling) Config {
	c.Sampling = s
	return c
}

// WithParallelism returns a copy of the config that simulates independent
// kernels on n worker goroutines (n <= 1 selects serial execution).
func (c Config) WithParallelism(n int) Config {
	c.Parallelism = n
	return c
}

// Validate checks the configuration and fills defaults for zero fields.
func (c *Config) Validate() error {
	if err := c.Device.Validate(); err != nil {
		return err
	}
	if c.ModeledSMs <= 0 {
		c.ModeledSMs = 2
	}
	if c.ModeledSMs > c.Device.SMs {
		c.ModeledSMs = c.Device.SMs
	}
	if c.MaxCTAsPerSM <= 0 {
		c.MaxCTAsPerSM = 2
	}
	if c.IssueWidth <= 0 {
		c.IssueWidth = 2
	}
	if c.Scheduler == "" {
		c.Scheduler = sched.GTO
	}
	if _, err := sched.New(c.Scheduler); err != nil {
		return err
	}
	if err := c.L1D.Validate(); err != nil {
		return fmt.Errorf("gpusim: L1D: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("gpusim: L2: %w", err)
	}
	if c.L2.Bypassed() {
		return fmt.Errorf("gpusim: L2 cache cannot be bypassed")
	}
	if err := c.DRAM.Validate(); err != nil {
		return fmt.Errorf("gpusim: DRAM: %w", err)
	}
	if c.Sampling.MaxCTAs < 0 || c.Sampling.MaxLoopIters < 0 {
		return fmt.Errorf("gpusim: sampling bounds must be non-negative")
	}
	if c.Parallelism < 0 {
		c.Parallelism = 0
	}
	return nil
}
