package harness

import (
	"fmt"

	"safetynet/internal/config"
	"safetynet/internal/runner"
	"safetynet/internal/sim"
	"safetynet/internal/stats"
)

// fig6Intervals are the checkpoint-interval sweep points of Figures 6
// and 7 (10k to 1M cycles, log spaced).
func fig6Intervals() []uint64 {
	return []uint64{10_000, 50_000, 100_000, 500_000, 1_000_000}
}

// intervalParams rescales the checkpoint machinery for a swept interval:
// the signoff, detection tolerance and watchdog stay proportional.
func intervalParams(base config.Params, o runner.Options, iv uint64) config.Params {
	p := perturbed(base, o, 0)
	p.SafetyNetEnabled = true
	p.CheckpointIntervalCycles = iv
	p.ValidationSignoffCycles = iv
	p.ValidationWatchdogCycles = 6 * iv
	return p
}

// intervalMeasure widens the measurement window so it covers several
// checkpoint intervals even for the longest sweep points.
func intervalMeasure(o runner.Options, iv uint64) sim.Time {
	if min := sim.Time(4 * iv); o.Measure < min {
		return min
	}
	return o.Measure
}

// fig6Workload is the swept workload of Figures 6 and 7 (the paper uses
// the static web server; trends match for all).
const fig6Workload = "apache"

// intervalGrid expands the interval sweep of Figures 6 and 7: one run
// per interval. The two figures measure different quantities of the
// same points.
func intervalGrid(base config.Params, o runner.Options) []Point {
	var pts []Point
	for _, iv := range fig6Intervals() {
		pts = append(pts, Point{
			Labels: map[string]string{"interval": fmt.Sprintf("%dk", iv/1000)},
			Run: runner.RunConfig{
				Params:   intervalParams(base, o, iv),
				Workload: fig6Workload,
				Warmup:   o.Warmup,
				Measure:  intervalMeasure(o, iv),
			},
		})
	}
	return pts
}

// fig6Reduce reports, per interval, all stores and all coherence
// requests per 1000 instructions, and the subsets of each that appended
// a CLB entry (paper Figure 6, log-log).
func fig6Reduce(_ config.Params, _ runner.Options, pts []Point, res []runner.RunResult) *Report {
	rep := &Report{
		Title:     "Figure 6: Frequencies of Stores and Coherence Requests (" + fig6Workload + ")",
		Subtitle:  "(events per 1000 instructions vs checkpoint interval)",
		LabelCols: []string{"interval"},
		ValueCols: []string{"all stores", "all coh reqs", "stores->CLB", "coh reqs->CLB"},
		ValueFmt:  []string{"%.1f", "%.1f", "%.2f", "%.2f"},
	}
	for i, pt := range pts {
		k := float64(res[i].Instrs) / 1000
		if k == 0 {
			k = 1
		}
		rep.Rows = append(rep.Rows, Row{
			Labels: []string{pt.Label("interval")},
			Values: []Value{
				Scalar(float64(res[i].StoresTotal) / k),
				Scalar(float64(res[i].CoherenceReqs) / k),
				Scalar(float64(res[i].StoresLogged) / k),
				Scalar(float64(res[i].TransfersLogged+res[i].DirLogged) / k),
			},
		})
	}
	if n := len(rep.Rows); n > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"stores->CLB falloff %.1fx from %s to %s cycles (paper: one to two orders of magnitude)",
			stats.SafeDiv(rep.Rows[0].Values[2].Mean, rep.Rows[n-1].Values[2].Mean),
			rep.Rows[0].Labels[0], rep.Rows[n-1].Labels[0]))
	}
	return rep
}
