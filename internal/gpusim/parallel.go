package gpusim

import (
	"fmt"
	"slices"
	"sync"

	"tango/internal/kernel"
	"tango/internal/par"
)

// RunKernels simulates an explicit kernel list and returns per-kernel
// statistics in kernel order.
//
// Kernels are independent simulations — each starts from pristine SM, L1, L2
// and DRAM state, with its buffers laid out from its own sizes — so a kernel
// equal to an earlier one in all but its names (a network's repeated blocks)
// has that kernel's statistics, and only the first of each such class is
// simulated.  When the configuration's Parallelism is greater than one those
// are fanned out across that many worker goroutines.  Results are written
// into their kernel's slot and errors are reported first-in-launch-order, so
// the output is identical to a serial run regardless of worker scheduling.
// The state itself is recycled: a kernel takes an idle machine if one
// exists, so at most one is built per worker.
func (s *Simulator) RunKernels(network string, kernels []*kernel.Kernel) (*RunStats, error) {
	stats := make([]*KernelStats, len(kernels))
	// first[i] is the earliest kernel that simulates as kernels[i] does.
	first := make([]int, len(kernels))
	for i, k := range kernels {
		first[i] = i
		for j := range i {
			if first[j] == j && sameSimulation(kernels[j], k) {
				first[i] = j
				break
			}
		}
	}
	var mu sync.Mutex
	var idle []*machine
	err := par.ForEach(s.cfg.Parallelism, len(kernels), func(i int) error {
		k := kernels[i]
		var err error
		if first[i] != i {
			err = k.Validate() // simulated as an earlier kernel, but its name is its own
		} else {
			var m *machine
			mu.Lock()
			if n := len(idle); n > 0 {
				m, idle = idle[n-1], idle[:n-1]
			}
			mu.Unlock()
			if m == nil {
				if m, err = s.newMachine(); err != nil {
					return err
				}
			}
			stats[i], err = s.runKernel(k, m)
			mu.Lock()
			idle = append(idle, m)
			mu.Unlock()
		}
		if err != nil {
			return fmt.Errorf("gpusim: %s: %w", k.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range first {
		if j != i {
			st := *stats[j]
			st.Kernel = kernels[i]
			stats[i] = &st
		}
	}
	return &RunStats{Network: network, Kernels: stats}, nil
}

// sameSimulation reports whether a and b differ at most in Name and
// LayerName, which no statistic depends on.
func sameSimulation(a, b *kernel.Kernel) bool {
	return a.Launch == b.Launch &&
		a.InputBytes == b.InputBytes && a.WeightBytes == b.WeightBytes && a.OutputBytes == b.OutputBytes &&
		a.Network == b.Network && a.LayerType == b.LayerType && a.Class == b.Class &&
		slices.Equal(a.Program.Prologue, b.Program.Prologue) &&
		slices.Equal(a.Program.Epilogue, b.Program.Epilogue) &&
		slices.EqualFunc(a.Program.Loops, b.Program.Loops, func(x, y kernel.Loop) bool {
			return x.Trip == y.Trip && slices.Equal(x.Body, y.Body)
		})
}
