package harness

import (
	"safetynet/internal/campaign"
	"safetynet/internal/config"
	"safetynet/internal/runner"
	"safetynet/internal/sim"
)

// campaignPoints expands a campaign definition into an experiment grid:
// one Point per expanded run, labeled with the run's matrix position,
// with the run's configuration assembled over the caller's base
// parameters (scenario.ParamsFrom) rather than the Table 2 defaults.
// This is how catalog experiments become thin campaign declarations —
// the campaign layer owns expansion and labeling, the experiment keeps
// only its reduce step.
func campaignPoints(c *campaign.Campaign, base config.Params) []Point {
	runs, err := c.Expand()
	if err != nil {
		// A grid function cannot return an error; surface the defective
		// definition as a single run that reports the cause as a crash
		// instead of panicking inside RunExperiment.
		return []Point{{
			Labels: map[string]string{"error": err.Error()},
			Run:    runner.RunConfig{Workload: "invalid campaign: " + err.Error()},
		}}
	}
	pts := make([]Point, len(runs))
	for i := range runs {
		sc := &runs[i].Scenario
		// An override set the base cannot absorb fails validation here;
		// the unvalidated params then surface the cause as a crashed run.
		p, _ := sc.ParamsFrom(base)
		pts[i] = Point{
			Labels: runs[i].Labels,
			Run: runner.RunConfig{
				Params:   p,
				Workload: sc.Workload,
				Warmup:   sim.Time(sc.WarmupCycles),
				Measure:  sim.Time(sc.MeasureCycles),
				Fault:    sc.Faults,
			},
		}
	}
	return pts
}
