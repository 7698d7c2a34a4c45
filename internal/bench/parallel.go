package bench

import (
	"strings"

	"tango/internal/par"
	"tango/internal/sched"
	"tango/internal/target"
)

// cell names one (target, network, variant) cell of the experiment matrix,
// tagged with the session configuration tag the renderers look it up under.
type cell struct {
	t       target.Target
	network string
	v       target.Variant
	tag     string
}

// gpuTags are the session GPU target's configuration tags: the default
// configuration, the Figure 2 L1 sweep (whose "nol1" runs also feed Figures
// 13 and 14) and the Figure 15/16 scheduler sweep.
var gpuTags = []string{
	"default",
	"nol1", "l1", "l1x2", "l1x4",
	"sched-" + string(sched.LRR), "sched-" + string(sched.TLV),
}

// matrix enumerates every run the session's experiments need: the GPU tags
// over the experiment's network set plus the Figure 6 embedded-platform runs
// (TX1 and PynQ) over its CNN pair.  The experiment drivers hit the store for
// all of these, so warming the matrix up front makes a full report run
// embarrassingly parallel.
func (s *Session) matrix() []cell {
	all := s.allNetworks()
	var cells []cell
	for _, tag := range gpuTags {
		v, err := s.variant(tag)
		if err != nil {
			continue // unreachable: gpuTags and variant are defined together
		}
		for _, n := range all {
			cells = append(cells, cell{t: s.gpu, network: n, v: v, tag: tag})
		}
	}
	// Figure 6: the embedded GPU and FPGA runs.
	v := target.DefaultVariant(s.opts.Sampling)
	for _, n := range s.opts.filter([]string{"CifarNet", "SqueezeNet"}) {
		cells = append(cells, cell{t: s.tx1, network: n, v: v, tag: "tx1"})
		cells = append(cells, cell{t: s.fpga, network: n, v: v, tag: "pynq"})
	}
	return cells
}

// experimentTags returns the matrix tags the given experiment's renderer
// consumes; nil means it renders without running targets (the GPU tables).
// TestPrewarmForCoversExperiments guards this mapping against drift.
func experimentTags(id string) []string {
	switch strings.ToLower(id) {
	case "fig2":
		return []string{"nol1", "l1", "l1x2", "l1x4"}
	case "fig6":
		return []string{"tx1", "pynq"}
	case "fig13", "fig14":
		return []string{"nol1"}
	case "fig15", "fig16":
		return []string{"default", "sched-" + string(sched.LRR), "sched-" + string(sched.TLV)}
	case "fig1", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig12":
		return []string{"default"}
	default:
		return nil
	}
}

// PrewarmFor warms only the matrix cells the given experiment consumes, on n
// concurrent workers, so one figure does not simulate the whole report
// matrix.  Cells are keyed exactly as the serial renderers request them.
// Unknown ids and the run-free tables warm nothing.  The first error in
// matrix order is returned; cells that failed stay uncached and are
// re-attempted (and re-reported deterministically) by the serial render.
func (s *Session) PrewarmFor(id string, n int) error {
	tags := experimentTags(id)
	if len(tags) == 0 {
		return nil
	}
	want := make(map[string]bool, len(tags))
	for _, t := range tags {
		want[t] = true
	}
	var cells []cell
	for _, c := range s.matrix() {
		if want[c.tag] {
			cells = append(cells, c)
		}
	}
	return s.prewarmCells(cells, n)
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
