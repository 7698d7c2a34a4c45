package bench

import (
	"strings"

	"tango/internal/par"
	"tango/internal/sched"
	"tango/internal/target"
)

// cell names one (target, network, variant) run of the experiment matrix.
type cell struct {
	t       target.Target
	network string
	v       target.Variant
}

// gpuVariants returns the session GPU configurations an experiment's
// renderer reads; nil means it reads none (the tables, Figure 6 and
// Figure 11).  TestPrewarmForCoversExperiments guards this mapping, and
// cells', against drift.
func (s *Session) gpuVariants(id string) []target.Variant {
	switch strings.ToLower(id) {
	case "fig2":
		return s.l1Variants()
	case "fig13", "fig14":
		return []target.Variant{s.defaultVariant().WithL1(0)}
	case "fig15", "fig16":
		var out []target.Variant
		for _, kind := range sched.Kinds() {
			out = append(out, s.schedVariant(kind))
		}
		return out
	case "fig1", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig12":
		return []target.Variant{s.defaultVariant()}
	default:
		return nil
	}
}

// cells returns the runs experiment id reads: its GPU variants over the
// session's networks, plus the embedded TX1 and PynQ runs of Figure 6.
func (s *Session) cells(id string) []cell {
	var cells []cell
	for _, v := range s.gpuVariants(id) {
		for _, n := range s.allNetworks() {
			cells = append(cells, cell{t: s.gpu, network: n, v: v})
		}
	}
	if strings.ToLower(id) == "fig6" {
		v := s.defaultVariant()
		for _, n := range s.opts.filter([]string{"CifarNet", "SqueezeNet"}) {
			cells = append(cells, cell{t: s.tx1, network: n, v: v}, cell{t: s.fpga, network: n, v: v})
		}
	}
	return cells
}

// matrix enumerates every run the session's experiments need, each once.
// The experiment drivers hit the store for all of these, so warming the
// matrix up front makes a full report run embarrassingly parallel.
func (s *Session) matrix() []cell {
	seen := map[string]bool{}
	var out []cell
	for _, id := range IDs() {
		for _, c := range s.cells(id) {
			if key := target.RunKey(c.t, c.network, c.v); !seen[key] {
				seen[key] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// PrewarmFor warms only the cells the given experiment consumes, on n
// concurrent workers, so one figure does not simulate the whole report
// matrix.  Cells are keyed exactly as the serial renderers request them.
// Unknown ids and the run-free tables warm nothing.  The first error in
// cell order is returned; cells that failed stay uncached and are
// re-attempted (and re-reported deterministically) by the serial render.
func (s *Session) PrewarmFor(id string, n int) error {
	return s.prewarmCells(s.cells(id), n)
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
