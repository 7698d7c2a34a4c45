package gpusim

import (
	"fmt"
	"sync"

	"tango/internal/kernel"
	"tango/internal/par"
)

// RunKernels simulates an explicit kernel list and returns per-kernel
// statistics in kernel order.
//
// Kernels are independent simulations — each starts from pristine SM, L1, L2
// and DRAM state — so when the configuration's Parallelism is greater than
// one they are fanned out across that many worker goroutines.  Results are
// written into their kernel's slot and errors are reported first-in-launch-
// order, so the output is identical to a serial run regardless of worker
// scheduling.  The state itself is recycled: a kernel takes an idle machine
// if one exists, so at most one is built per worker.
func (s *Simulator) RunKernels(network string, kernels []*kernel.Kernel) (*RunStats, error) {
	stats := make([]*KernelStats, len(kernels))
	var mu sync.Mutex
	var idle []*machine
	err := par.ForEach(s.cfg.Parallelism, len(kernels), func(i int) error {
		var m *machine
		mu.Lock()
		if n := len(idle); n > 0 {
			m, idle = idle[n-1], idle[:n-1]
		}
		mu.Unlock()
		if m == nil {
			var err error
			if m, err = s.newMachine(); err != nil {
				return err
			}
		}
		ks, err := s.runKernel(kernels[i], m)
		mu.Lock()
		idle = append(idle, m)
		mu.Unlock()
		if err != nil {
			return fmt.Errorf("gpusim: %s: %w", kernels[i].Name, err)
		}
		stats[i] = ks
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RunStats{Network: network, Kernels: stats}, nil
}
