// Package device describes the hardware platforms the paper evaluates: the
// Kepler GK210 server GPU, the Tegra X1 mobile GPU, the Pascal GP102
// configuration used with the architecture simulator (Table II) and the
// Xilinx PynQ-Z1 FPGA board (Table IV).
package device

import "fmt"

// Class distinguishes GPUs from FPGAs.
type Class uint8

// Device classes.
const (
	ClassGPU Class = iota
	ClassFPGA
)

// String returns the class name.
func (c Class) String() string {
	if c == ClassFPGA {
		return "FPGA"
	}
	return "GPU"
}

// GPU describes one GPU platform (Table II).
type GPU struct {
	// Name is the marketing name, e.g. "Tesla K80 (GK210)".
	Name string
	// Architecture is the GPU architecture, e.g. "Kepler", "Maxwell", "Pascal".
	Architecture string
	// Role is the evaluation role in the paper: "Server", "Mobile" or "Simulator".
	Role string
	// CUDACores is the total CUDA core count.
	CUDACores int
	// SMs is the number of streaming multiprocessors.
	SMs int
	// CoreClockMHz is the SM clock.
	CoreClockMHz int
	// MemClockMHz is the memory clock.
	MemClockMHz int
	// GlobalMemBytes is the device memory capacity.
	GlobalMemBytes int64
	// SharedMemPerBlockBytes is the shared memory available per block.
	SharedMemPerBlockBytes int
	// L1DBytes is the default per-SM L1 data cache size.
	L1DBytes int
	// L2Bytes is the shared L2 cache size.
	L2Bytes int
	// RegistersPerSM is the per-SM register file size in 32-bit registers.
	RegistersPerSM int
	// MaxWarpsPerSM bounds resident warps per SM.
	MaxWarpsPerSM int
	// MemBandwidthGBs is the peak DRAM bandwidth.
	MemBandwidthGBs float64
	// TDPWatts is the board power limit, used to calibrate the power model.
	TDPWatts float64
	// IdleWatts is the measured idle power of the board.
	IdleWatts float64
	// HostCPU and OS document the evaluation platform (Table II).
	HostCPU string
	OS      string
}

// Validate checks the configuration for plausibility.
func (g GPU) Validate() error {
	if g.Name == "" {
		return fmt.Errorf("device: unnamed GPU")
	}
	if g.SMs <= 0 || g.CUDACores <= 0 {
		return fmt.Errorf("device: %s: SMs and CUDA cores must be positive", g.Name)
	}
	if g.CUDACores%g.SMs != 0 {
		return fmt.Errorf("device: %s: %d cores do not divide evenly across %d SMs", g.Name, g.CUDACores, g.SMs)
	}
	if g.CoreClockMHz <= 0 || g.MemBandwidthGBs <= 0 {
		return fmt.Errorf("device: %s: clock and bandwidth must be positive", g.Name)
	}
	if g.L2Bytes <= 0 || g.RegistersPerSM <= 0 {
		return fmt.Errorf("device: %s: cache and register file sizes must be positive", g.Name)
	}
	return nil
}

// FPGA describes the PynQ-Z1 platform (Table IV).
type FPGA struct {
	Name string
	// Processor is the hard CPU complex.
	Processor string
	// ProcessorClockMHz is the ARM core clock.
	ProcessorClockMHz int
	// FabricClockMHz is the programmable-logic clock used by the HLS kernels.
	FabricClockMHz int
	// MemBytes is the board DRAM.
	MemBytes int64
	// StorageBytes is the SD-card storage.
	StorageBytes int64
	// LogicSlices is the programmable logic capacity.
	LogicSlices int
	// BRAMBytes is the on-chip block RAM capacity.
	BRAMBytes int
	// DSPSlices is the number of DSP48 multiply-accumulate slices.
	DSPSlices int
	// IdleWatts and PeakWatts bound the board power envelope.
	IdleWatts float64
	PeakWatts float64
}

// Validate checks the configuration for plausibility.
func (f FPGA) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("device: unnamed FPGA")
	}
	if f.LogicSlices <= 0 || f.BRAMBytes <= 0 || f.DSPSlices <= 0 {
		return fmt.Errorf("device: %s: fabric resources must be positive", f.Name)
	}
	if f.FabricClockMHz <= 0 {
		return fmt.Errorf("device: %s: fabric clock must be positive", f.Name)
	}
	return nil
}

// GK210 returns the server GPU of Table II: one GK210 die of a Tesla K80.
func GK210() GPU {
	return GPU{
		Name:                   "NVIDIA GK210 (Tesla K80)",
		Architecture:           "Kepler",
		Role:                   "Server",
		CUDACores:              2880,
		SMs:                    15,
		CoreClockMHz:           745,
		MemClockMHz:            2505,
		GlobalMemBytes:         24 << 30,
		SharedMemPerBlockBytes: 128 << 10,
		L1DBytes:               48 << 10,
		L2Bytes:                1536 << 10,
		RegistersPerSM:         65536,
		MaxWarpsPerSM:          64,
		MemBandwidthGBs:        240,
		TDPWatts:               300,
		IdleWatts:              62,
		HostCPU:                "Intel Xeon E5-2623 3.0 GHz",
		OS:                     "Ubuntu 14.04.1",
	}
}

// TX1 returns the mobile GPU of Table II: the Jetson TX1's Maxwell GPU.
func TX1() GPU {
	return GPU{
		Name:                   "NVIDIA Tegra X1",
		Architecture:           "Maxwell",
		Role:                   "Mobile",
		CUDACores:              256,
		SMs:                    2,
		CoreClockMHz:           998,
		MemClockMHz:            1600,
		GlobalMemBytes:         4 << 30,
		SharedMemPerBlockBytes: 48 << 10,
		L1DBytes:               48 << 10,
		L2Bytes:                256 << 10,
		RegistersPerSM:         32768,
		MaxWarpsPerSM:          64,
		MemBandwidthGBs:        25.6,
		TDPWatts:               15,
		IdleWatts:              1.5,
		HostCPU:                "ARM Cortex-A57 1.9 GHz",
		OS:                     "Ubuntu 14.04.3 LTS",
	}
}

// PascalGP102 returns the simulator configuration of Table II: a Pascal GP102
// as modelled by the development branch of GPGPU-Sim.
func PascalGP102() GPU {
	return GPU{
		Name:                   "Pascal GP102 (simulator)",
		Architecture:           "Pascal",
		Role:                   "Simulator",
		CUDACores:              3584,
		SMs:                    28,
		CoreClockMHz:           1480,
		MemClockMHz:            5505,
		GlobalMemBytes:         11 << 30,
		SharedMemPerBlockBytes: 96 << 10,
		L1DBytes:               64 << 10,
		L2Bytes:                3 << 20,
		RegistersPerSM:         65536,
		MaxWarpsPerSM:          64,
		MemBandwidthGBs:        484,
		TDPWatts:               250,
		IdleWatts:              55,
		HostCPU:                "Intel Xeon E5-2623 3.0 GHz",
		OS:                     "Ubuntu 14.04.1",
	}
}

// PynQZ1 returns the FPGA platform of Table IV.
func PynQZ1() FPGA {
	return FPGA{
		Name:              "Xilinx PynQ-Z1",
		Processor:         "Dual-core ARM Cortex-A9",
		ProcessorClockMHz: 650,
		FabricClockMHz:    100,
		MemBytes:          512 << 20,
		StorageBytes:      32 << 30,
		LogicSlices:       13300,
		BRAMBytes:         630 << 10,
		DSPSlices:         220,
		IdleWatts:         1.2,
		PeakWatts:         6,
	}
}
