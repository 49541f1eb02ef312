package harness

import (
	"safetynet/internal/config"
	"safetynet/internal/runner"
)

// fig7Reduce reports, per interval of the Figure 6 sweep, the cache
// bandwidth consumed by hits, fills, coherence responses, and logging as
// percentages of total port occupancy (paper Figure 7).
func fig7Reduce(_ config.Params, _ runner.Options, pts []Point, res []runner.RunResult) *Report {
	rep := &Report{
		Title:     "Figure 7: Cache Bandwidth vs Checkpoint Interval (" + fig6Workload + ")",
		Subtitle:  "(percent of cache-port occupancy by class)",
		LabelCols: []string{"interval"},
		ValueCols: []string{"hits", "fills", "coherence", "logging"},
		ValueFmt:  []string{"%.1f%%", "%.1f%%", "%.1f%%", "%.2f%%"},
		Notes: []string{
			"(paper: logging ranges from ~4% at 5k-cycle intervals down to ~0.3% at 1M)",
		},
	}
	for i, pt := range pts {
		bw := res[i].Bandwidth
		total := float64(bw.Total())
		if total == 0 {
			total = 1
		}
		pct := func(c uint64) Value { return Scalar(100 * (float64(c) / total)) }
		rep.Rows = append(rep.Rows, Row{
			Labels: []string{pt.Label("interval")},
			Values: []Value{
				pct(bw.HitCycles), pct(bw.FillCycles), pct(bw.CoherenceCycles), pct(bw.LoggingCycles),
			},
		})
	}
	return rep
}
