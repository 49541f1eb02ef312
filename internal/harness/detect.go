package harness

import (
	"fmt"
	"strconv"

	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/sim"
)

// The detect experiment demonstrates §3.4/§4: with four outstanding
// 100k-cycle checkpoints, SafetyNet tolerates fault-detection latencies
// up to 400k cycles; the request timeout models the detection
// mechanism's latency. Longer detection latencies still recover
// (validation simply stalls and execution backpressures), at growing
// throughput cost.

const detectWorkload = "jbb"

// detectLatencies is the swept detection (request timeout) latency.
func detectLatencies() []uint64 { return []uint64{50_000, 100_000, 200_000, 400_000} }

// detectGrid expands the sweep: one single-fault run per latency.
func detectGrid(base config.Params, o runner.Options) []Point {
	var pts []Point
	for _, d := range detectLatencies() {
		p := perturbed(base, o, 0)
		p.SafetyNetEnabled = true
		p.RequestTimeoutCycles = d
		p.ValidationWatchdogCycles = 3 * d
		if p.ValidationWatchdogCycles <= p.CheckpointIntervalCycles {
			p.ValidationWatchdogCycles = 2 * p.CheckpointIntervalCycles
		}
		measure := o.Measure
		if min := sim.Time(8 * d); measure < min {
			measure = min
		}
		pts = append(pts, Point{
			Labels: map[string]string{"detect": strconv.FormatUint(d, 10)},
			Run: runner.RunConfig{
				Params: p, Workload: detectWorkload, Warmup: o.Warmup, Measure: measure,
				Fault: fault.Plan{fault.DropOnce{At: o.Warmup + measure/8}},
			},
		})
	}
	return pts
}

// detectReduce reports, per detection latency, whether the fault
// recovered, whether the run crashed, and its throughput.
func detectReduce(base config.Params, _ runner.Options, pts []Point, res []runner.RunResult) *Report {
	rep := &Report{
		Title:     fmt.Sprintf("Detection-latency tolerance (configured tolerance: %d cycles)", base.DetectionToleranceCycles()),
		LabelCols: []string{"detection latency", "recovered", "crashed"},
		ValueCols: []string{"aggregate IPC"},
		Notes: []string{
			"(paper: 4 outstanding 100k-cycle checkpoints tolerate 400k cycles = 0.4 ms of detection latency)",
		},
	}
	for i, pt := range pts {
		d, _ := strconv.ParseUint(pt.Label("detect"), 10, 64)
		rep.Rows = append(rep.Rows, Row{
			Labels: []string{
				fmt.Sprintf("%dk cycles", d/1000),
				strconv.FormatBool(res[i].Recoveries > 0),
				strconv.FormatBool(res[i].Crashed),
			},
			Values: []Value{Scalar(res[i].IPC)},
		})
	}
	return rep
}
