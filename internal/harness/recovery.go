package harness

import (
	"safetynet/internal/campaign"
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/scenario"
	"safetynet/internal/stats"
)

// The recovery experiment quantifies the §4.2 claim that recovery is a
// sub-millisecond "speed bump": the coordination latency of recovery
// itself plus the dominant cost, re-executing lost work.

const recoveryWorkload = "oltp"

// recoveryCampaign declares the experiment as a campaign: one protected
// OLTP base scenario with two fault-plan variants — the fault-free
// control arm and periodic transient drops. The campaign layer owns
// expansion and labeling; the experiment keeps only its reduce step.
func recoveryCampaign(o runner.Options) *campaign.Campaign {
	protected := true
	perturb := uint64(4)
	// Clamp the derived period: integer division of a tiny measurement
	// window would otherwise build a zero-period plan that fails at arm
	// time.
	period := o.Measure / 5
	if period < 1 {
		period = 1
	}
	return &campaign.Campaign{
		Name: "recovery",
		Base: scenario.Scenario{
			Workload:      recoveryWorkload,
			WarmupCycles:  uint64(o.Warmup),
			MeasureCycles: uint64(o.Measure),
			Overrides: &scenario.Overrides{
				SafetyNetEnabled:    &protected,
				LatencyPerturbation: &perturb,
			},
		},
		Variants: []campaign.Variant{
			{Name: "fault-free"},
			{Name: "faulty", Faults: fault.Plan{fault.DropEvery{Start: o.Warmup, Period: period}}},
		},
		Seeds: &campaign.SeedRange{Start: o.BaseSeed, Count: 1, Stride: perturbSeedStride},
	}
}

// recoveryGrid expands the campaign into the two design points.
func recoveryGrid(base config.Params, o runner.Options) []Point {
	return campaignPoints(recoveryCampaign(o), base)
}

// recoveryReduce reports the faulty run's recoveries, their
// coordination latency (detection to restart broadcast) and lost work,
// and the throughput of both runs.
func recoveryReduce(_ config.Params, _ runner.Options, pts []Point, res []runner.RunResult) *Report {
	var coord stats.Sample
	var recoveries int
	var lostPerRecovery, ipcFaultFree, ipcWithFaults float64
	for i, pt := range pts {
		if pt.Label(campaign.LabelVariant) == "fault-free" {
			ipcFaultFree = res[i].IPC
			continue
		}
		ipcWithFaults = res[i].IPC
		recoveries = res[i].Recoveries
		for _, d := range res[i].RecoveryCycles {
			coord.Add(float64(d))
		}
		if res[i].Recoveries > 0 {
			lostPerRecovery = float64(res[i].InstrsRolledBack) / float64(res[i].Recoveries)
		}
	}
	return &Report{
		Title:     "Recovery latency (§4.2: a sub-millisecond speed bump, not a crash)",
		Subtitle:  "(workload: " + recoveryWorkload + ")",
		LabelCols: []string{"metric", "unit"},
		ValueCols: []string{"value"},
		ValueFmt:  []string{"%.3f"},
		Rows: []Row{
			{Labels: []string{"recoveries", "count"}, Values: []Value{Scalar(float64(recoveries))}},
			{Labels: []string{"coordination latency", "cycles"}, Values: []Value{Sampled(&coord)}},
			{Labels: []string{"lost work per recovery", "instructions"}, Values: []Value{Scalar(lostPerRecovery)}},
			{Labels: []string{"throughput fault-free", "aggregate IPC"}, Values: []Value{Scalar(ipcFaultFree)}},
			{Labels: []string{"throughput with faults", "aggregate IPC"}, Values: []Value{Scalar(ipcWithFaults)}},
			{Labels: []string{"throughput retained", "percent of fault-free"},
				Values: []Value{Scalar(100 * stats.SafeDiv(ipcWithFaults, ipcFaultFree))}},
		},
		Notes: []string{
			"(paper: recovery latency orders of magnitude below crash/reboot; <1 ms)",
		},
	}
}
