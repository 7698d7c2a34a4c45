package bench

import (
	"tango/internal/gpusim"
	"tango/internal/par"
	"tango/internal/power"
	"tango/internal/target"
)

// cell names one (target, network, variant) run of the experiment matrix.
type cell struct {
	t       target.Target
	network string
	v       target.Variant
}

// grid is an experiment's row resolved against a session: the runs it reads
// are each of nets on each of targets under each of variants.  Renderers
// read their runs through it, so they read exactly the cells it lists.
type grid struct {
	store    *target.Store
	nets     []string
	targets  []target.Target
	variants []target.Variant
}

// cells lists the grid's runs.
func (g grid) cells() []cell {
	var out []cell
	for _, n := range g.nets {
		for _, t := range g.targets {
			for _, v := range g.variants {
				out = append(out, cell{t: t, network: n, v: v})
			}
		}
	}
	return out
}

// run returns the network's run on target ti under variant vi.
func (g grid) run(network string, ti, vi int) (*target.RunStats, error) {
	return g.store.Run(g.targets[ti], network, g.variants[vi])
}

// sim returns the simulator statistics of the network on the grid's GPU
// target under variant vi.
func (g grid) sim(network string, vi int) (*gpusim.RunStats, error) {
	rs, err := g.run(network, 0, vi)
	if err != nil {
		return nil, err
	}
	return rs.GPU, nil
}

// powerModel returns the power model of the grid's GPU target.
func (g grid) powerModel() *power.Model {
	dev, _ := target.GPUDevice(g.targets[0])
	return power.NewModel(dev)
}

// matrix enumerates every run the session's experiments read, each once.
// Warming it up front makes a full report run embarrassingly parallel.
func (s *Session) matrix() []cell {
	seen := map[string]bool{}
	var out []cell
	for _, e := range experiments {
		for _, c := range s.grid(e).cells() {
			if key := target.RunKey(c.t, c.network, c.v); !seen[key] {
				seen[key] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// PrewarmFor warms exactly the cells the given experiment reads, on n
// concurrent workers, so one figure does not simulate the whole report
// matrix.  Unknown ids and the run-free experiments warm nothing.  The
// first error in cell order is returned; cells that failed stay uncached and
// are re-attempted (and re-reported deterministically) by the serial render.
func (s *Session) PrewarmFor(id string, n int) error {
	e, ok := lookup(id)
	if !ok {
		return nil
	}
	return s.prewarmCells(s.grid(e).cells(), n)
}

// prewarmCells computes the given matrix cells on n concurrent workers.
// Trace extraction is shared through the store's singleflight, so concurrent
// cells of one network never lower it twice.
func (s *Session) prewarmCells(cells []cell, n int) error {
	return par.ForEach(n, len(cells), func(i int) error {
		c := cells[i]
		_, err := s.store.Run(c.t, c.network, c.v)
		return err
	})
}
