package harness

import (
	"safetynet/internal/campaign"
	"safetynet/internal/config"
	"safetynet/internal/runner"
	"safetynet/internal/scenario"
	"safetynet/internal/stats"
	"safetynet/internal/workload"
)

// protocols runs the five paper workloads on both coherence backends —
// the evaluated MOSI directory/torus machine and footnote 1's broadcast
// snooping system — from one shared configuration, reporting throughput
// and SafetyNet logging overhead side by side. The headline observation
// is protocol-agnosticism (§2.3): logging rates per retired instruction
// are of the same order on both substrates even though the interconnects
// (and hence absolute IPC) differ completely.

var protocolNames = []string{config.ProtocolDirectory, config.ProtocolSnoop}

// protocolsCampaign declares the experiment as a campaign: the
// workload × protocol matrix over a protected base scenario, with the
// perturbed-run replication expressed as a seed range.
func protocolsCampaign(o runner.Options) *campaign.Campaign {
	protected := true
	perturb := uint64(4)
	wlAxis := campaign.Axis{Name: "workload"}
	for _, wl := range workload.PaperWorkloads() {
		wlAxis.Points = append(wlAxis.Points, campaign.AxisPoint{Label: wl, Workload: wl})
	}
	protoAxis := campaign.Axis{Name: "protocol"}
	for _, proto := range protocolNames {
		p := proto
		protoAxis.Points = append(protoAxis.Points, campaign.AxisPoint{
			Label: proto, Overrides: &scenario.Overrides{Protocol: &p},
		})
	}
	return &campaign.Campaign{
		Name: "protocols",
		Base: scenario.Scenario{
			Workload:      workload.PaperWorkloads()[0],
			WarmupCycles:  uint64(o.Warmup),
			MeasureCycles: uint64(o.Measure),
			Overrides: &scenario.Overrides{
				SafetyNetEnabled:    &protected,
				LatencyPerturbation: &perturb,
			},
		},
		Axes:  []campaign.Axis{wlAxis, protoAxis},
		Seeds: &campaign.SeedRange{Start: o.BaseSeed, Count: o.Runs, Stride: perturbSeedStride},
	}
}

// protocolsGrid expands workload x protocol x perturbed-run points.
func protocolsGrid(base config.Params, o runner.Options) []Point {
	return campaignPoints(protocolsCampaign(o), base)
}

// protocolsCell aggregates one (workload, protocol) design point.
type protocolsCell struct {
	ipc     stats.Sample
	logRate stats.Sample // CLB appends per 1000 retired instructions
	crashed bool
}

func protocolsReduce(_ config.Params, _ runner.Options, pts []Point, res []runner.RunResult) *Report {
	cells := map[string]map[string]*protocolsCell{}
	for _, wl := range workload.PaperWorkloads() {
		cells[wl] = map[string]*protocolsCell{}
		for _, proto := range protocolNames {
			cells[wl][proto] = &protocolsCell{}
		}
	}
	for i, pt := range pts {
		cell := cells[pt.Label("workload")][pt.Label("protocol")]
		if res[i].Crashed {
			cell.crashed = true
			continue
		}
		cell.ipc.Add(res[i].IPC)
		appends := float64(res[i].StoresLogged + res[i].TransfersLogged)
		cell.logRate.Add(1000 * stats.SafeDiv(appends, float64(res[i].Instrs)))
	}

	rep := &Report{
		Title:     "Two protocols, one harness: directory vs snooping SafetyNet",
		Subtitle:  "(same parameters aimed at both backends; IPC is per-substrate, not comparable across rows)",
		LabelCols: []string{"workload", "protocol"},
		ValueCols: []string{"aggregate IPC", "CLB appends /1k instr"},
		ValueFmt:  []string{"%.3f", "%.2f"},
		Notes: []string{
			"(paper fn. 1/§2.3: SafetyNet is protocol-agnostic — on the ordered snooping interconnect logical time is simply the total snoop order; logging overhead per instruction is of the same order on both substrates)",
		},
	}
	for _, wl := range workload.PaperWorkloads() {
		for _, proto := range protocolNames {
			cell := cells[wl][proto]
			vals := []Value{Sampled(&cell.ipc), Sampled(&cell.logRate)}
			if cell.crashed {
				vals = []Value{CrashedValue(), CrashedValue()}
			}
			rep.Rows = append(rep.Rows, Row{Labels: []string{wl, proto}, Values: vals})
		}
	}
	return rep
}
