package harness

import (
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/stats"
	"safetynet/internal/topology"
	"safetynet/internal/workload"
)

// fig5Bars are Figure 5's five bars per workload, in plot order: the
// unprotected baseline without and with a fault (the latter crashes),
// and the protected system fault-free (Experiment 1), under periodic
// dropped messages (Experiment 2), and with a killed half-switch
// (Experiment 3). The first bar is the normalization base.
//
// The transient-fault rate is scaled to the horizon: the paper injects
// one fault per 100M cycles (ten per second); simulating 100M cycles per
// bar is impractical, so this harness injects one fault per measurement
// window — still a 25x higher rate than the paper's at default sizing.
// Each recovery costs roughly detection latency plus two checkpoint
// intervals of re-executed work (~150k cycles), so the expected overhead
// at this rate is a few percent, and under the paper's rate it would be
// ~0.15% — supporting the "statistically insignificant" conclusion.
var fig5Bars = []struct {
	name      string
	protected bool
	fault     func(o runner.Options) fault.Plan // nil: fault-free
}{
	{name: "Unprotected fault-free"},
	{name: "Unprotected with fault", fault: func(o runner.Options) fault.Plan {
		return fault.Plan{fault.DropOnce{At: o.Warmup + o.Measure/8}}
	}},
	{name: "SafetyNet fault-free", protected: true},
	{name: "SafetyNet with transient faults", protected: true, fault: func(o runner.Options) fault.Plan {
		return fault.Plan{fault.DropEvery{Start: o.Warmup, Period: o.Measure}}
	}},
	{name: "SafetyNet with a hard fault", protected: true, fault: func(o runner.Options) fault.Plan {
		return fault.Plan{fault.KillSwitch{
			Node: victimSwitchNode, Axis: topology.EW, At: o.Warmup + o.Measure/4,
		}}
	}},
}

// fig5Grid expands Figure 5 into workload x bar x perturbed-run points.
func fig5Grid(base config.Params, o runner.Options) []Point {
	var pts []Point
	for _, wl := range workload.PaperWorkloads() {
		for _, bar := range fig5Bars {
			var plan fault.Plan
			if bar.fault != nil {
				plan = bar.fault(o)
			}
			for i := 0; i < o.Runs; i++ {
				p := perturbed(base, o, i)
				p.SafetyNetEnabled = bar.protected
				pts = append(pts, Point{
					Labels: map[string]string{"workload": wl, "bar": bar.name},
					Run: runner.RunConfig{
						Params: p, Workload: wl, Warmup: o.Warmup, Measure: o.Measure, Fault: plan,
					},
				})
			}
		}
	}
	return pts
}

// fig5Reduce reports each bar's performance normalized to the same
// workload's unprotected fault-free mean. A bar with any crashed run
// reports a crash.
func fig5Reduce(_ config.Params, _ runner.Options, pts []Point, res []runner.RunResult) *Report {
	type cell struct {
		perf    stats.Sample
		crashed bool
	}
	cells := map[[2]string]*cell{}
	at := func(wl, bar string) *cell {
		k := [2]string{wl, bar}
		if cells[k] == nil {
			cells[k] = &cell{}
		}
		return cells[k]
	}
	for i, pt := range pts {
		c := at(pt.Label("workload"), pt.Label("bar"))
		if res[i].Crashed {
			c.crashed = true
			continue
		}
		c.perf.Add(res[i].IPC)
	}

	rep := &Report{
		Title:     "Figure 5: Performance Evaluation of SafetyNet",
		Subtitle:  "(normalized to unprotected fault-free; error bars = 1 stddev)",
		LabelCols: []string{"workload", "bar"},
		ValueCols: []string{"normalized"},
		Bar:       &BarSpec{Col: 0, Max: 1.2},
	}
	for _, wl := range workload.PaperWorkloads() {
		base := at(wl, fig5Bars[0].name).perf.Mean()
		for _, bar := range fig5Bars {
			c := at(wl, bar.name)
			// Surviving-run stats are discarded once any run of the bar
			// crashes; don't report their N against a zero mean.
			v := CrashedValue()
			if !c.crashed {
				v = Value{N: c.perf.N()}
				if base != 0 {
					v.Mean, v.Stddev = c.perf.Mean()/base, c.perf.Stddev()/base
				}
			}
			rep.Rows = append(rep.Rows, Row{Labels: []string{wl, bar.name}, Values: []Value{v}})
		}
	}
	return rep
}
