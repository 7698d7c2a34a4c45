package kernel_test

import (
	"slices"
	"testing"

	"tango/internal/kernel"
	"tango/internal/networks"
)

func TestDialects(t *testing.T) {
	// The paper implements all seven networks in CUDA C and additionally
	// provides OpenCL versions of CifarNet and AlexNet (Section III).
	for _, name := range networks.Names() {
		ds := kernel.Dialects(name)
		if len(ds) == 0 || ds[0] != kernel.DialectCUDA {
			t.Errorf("%s: every benchmark must have a CUDA dialect, got %v", name, ds)
		}
		want := []kernel.Dialect{kernel.DialectCUDA}
		if name == "CifarNet" || name == "AlexNet" {
			want = append(want, kernel.DialectOpenCL)
		}
		if !slices.Equal(ds, want) {
			t.Errorf("%s: dialects %v, want %v", name, ds, want)
		}
	}
	if ds := kernel.Dialects("MobileNet"); !slices.Equal(ds, []kernel.Dialect{kernel.DialectCUDA}) {
		t.Errorf("the MobileNet extension has no OpenCL variant, got %v", ds)
	}
}
