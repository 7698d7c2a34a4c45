package kernel

// Dialect identifies the source language a kernel of the original suite is
// written in.  The generated instruction templates are language-agnostic —
// the CUDA and OpenCL variants of a layer execute the same math with the same
// launch geometry — so the dialect only tags provenance, mirroring the
// paper's statement that all seven networks are implemented in CUDA C while
// CifarNet and AlexNet additionally ship OpenCL versions for the FPGA flow.
type Dialect string

// Kernel dialects of the original benchmark suite.
const (
	DialectCUDA   Dialect = "CUDA"
	DialectOpenCL Dialect = "OpenCL"
)

// openCLNetworks lists the benchmarks the paper also implements in OpenCL.
var openCLNetworks = map[string]bool{
	"CifarNet": true,
	"AlexNet":  true,
}

// Dialects returns the source dialects available for a benchmark.
func Dialects(network string) []Dialect {
	if openCLNetworks[network] {
		return []Dialect{DialectCUDA, DialectOpenCL}
	}
	return []Dialect{DialectCUDA}
}
