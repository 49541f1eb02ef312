package harness

import (
	"fmt"
	"strconv"

	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/sim"
)

// snoopdetect mirrors the detect experiment on the snooping backend
// (footnote 1, §2.3): a single data-network drop is injected into each
// run while the requestor's transaction timeout — the detection mechanism
// on the ordered interconnect — sweeps upward. Detection latency on this
// substrate is pure timeout: the total snoop order leaves no ambiguity
// about which transaction lost its data, so every latency recovers and
// the cost is the stalled requestor plus the rolled-back interval.

const snoopDetectWorkload = "jbb"

// snoopDetectLatencies is the swept detection (request timeout) latency.
// The top of the sweep stays below the directory experiment's 400k cycles
// so the grid remains affordable on the slot-serialized bus.
func snoopDetectLatencies() []uint64 { return []uint64{10_000, 20_000, 40_000, 80_000} }

// snoopDetectGrid expands the sweep: one single-fault snoop run per
// latency.
func snoopDetectGrid(base config.Params, o runner.Options) []Point {
	var pts []Point
	for _, d := range snoopDetectLatencies() {
		p := perturbed(base, o, 0)
		p.Protocol = config.ProtocolSnoop
		p.SafetyNetEnabled = true
		p.RequestTimeoutCycles = d
		if p.ValidationWatchdogCycles <= 3*d {
			p.ValidationWatchdogCycles = 4 * d
		}
		measure := o.Measure
		if min := sim.Time(6 * d); measure < min {
			measure = min
		}
		pts = append(pts, Point{
			Labels: map[string]string{"detect": strconv.FormatUint(d, 10)},
			Run: runner.RunConfig{
				Params: p, Workload: snoopDetectWorkload, Warmup: o.Warmup, Measure: measure,
				Fault: fault.Plan{fault.DropOnce{At: o.Warmup + measure/8}},
			},
		})
	}
	return pts
}

func snoopDetectReduce(_ config.Params, _ runner.Options, pts []Point, res []runner.RunResult) *Report {
	rep := &Report{
		Title:     "Detection latency on the snooping backend (ordered interconnect)",
		Subtitle:  "(workload: " + snoopDetectWorkload + "; one dropped data response per run)",
		LabelCols: []string{"detection latency", "recovered"},
		ValueCols: []string{"aggregate IPC", "instrs rolled back"},
		ValueFmt:  []string{"%.3f", "%.0f"},
		Notes: []string{
			"(paper §2.3: on an ordered interconnect logical time is the total snoop order, so detection is a pure transaction timeout and every latency recovers)",
		},
	}
	for i, pt := range pts {
		d, _ := strconv.ParseUint(pt.Label("detect"), 10, 64)
		rep.Rows = append(rep.Rows, Row{
			Labels: []string{
				fmt.Sprintf("%dk cycles", d/1000),
				strconv.FormatBool(res[i].Recoveries > 0),
			},
			Values: []Value{Scalar(res[i].IPC), Scalar(float64(res[i].InstrsRolledBack))},
		})
	}
	return rep
}
