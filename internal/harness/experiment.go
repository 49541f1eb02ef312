package harness

import (
	"fmt"
	"slices"
	"strings"

	"safetynet/internal/config"
	"safetynet/internal/runner"
)

// Point is one simulation of an experiment's design-point grid. Labels
// name the point's position along the experiment's dimensions (workload,
// bar, interval, ...) for the reduce step and for structured output.
type Point struct {
	Labels map[string]string
	Run    runner.RunConfig
}

// Label returns one label value ("" when absent).
func (p Point) Label(key string) string { return p.Labels[key] }

// Experiment declares one table or figure of the evaluation: a grid of
// concrete runs expanded from the base configuration and options, and a
// reduce step folding the grid's results into a structured Report.
type Experiment struct {
	// Name is the catalog key (e.g. "fig6"); Title and Description are
	// for humans.
	Name        string
	Title       string
	Description string
	// Grid expands the experiment into concrete runs. Nil means the
	// experiment needs no simulation (table2 prints parameters).
	Grid func(base config.Params, o runner.Options) []Point
	// Reduce folds the grid's results — res[i] belongs to pts[i], in
	// grid order regardless of execution order — into the report.
	Reduce func(base config.Params, o runner.Options, pts []Point, res []runner.RunResult) *Report
}

// catalog is every experiment of the evaluation, in paper order.
var catalog = []Experiment{
	{Name: "table2", Title: "Table 2: Target System Parameters",
		Description: "the simulated target-system parameters (no simulation runs)",
		Reduce:      table2Reduce},
	{Name: "fig5", Title: "Figure 5: Performance Evaluation of SafetyNet",
		Description: "normalized performance of Experiments 1-3 across the five paper workloads",
		Grid:        fig5Grid, Reduce: fig5Reduce},
	{Name: "fig6", Title: "Figure 6: Frequencies of Stores and Coherence Requests",
		Description: "store/coherence event rates and their logged subsets vs checkpoint interval",
		Grid:        intervalGrid, Reduce: fig6Reduce},
	{Name: "fig7", Title: "Figure 7: Cache Bandwidth vs Checkpoint Interval",
		Description: "cache-port occupancy split across hits, fills, coherence, and logging",
		Grid:        intervalGrid, Reduce: fig7Reduce},
	{Name: "fig8", Title: "Figure 8: Performance vs CLB Size",
		Description: "performance degradation from CLB back-pressure as buffer capacity shrinks",
		Grid:        fig8Grid, Reduce: fig8Reduce},
	{Name: "recovery", Title: "Recovery latency",
		Description: "recovery coordination latency and lost work under periodic transient faults (§4.2)",
		Grid:        recoveryGrid, Reduce: recoveryReduce},
	{Name: "detect", Title: "Detection-latency tolerance",
		Description: "recovery behavior and throughput as fault-detection latency grows (§3.4)",
		Grid:        detectGrid, Reduce: detectReduce},
	{Name: "snoopdetect", Title: "Detection latency on the snooping backend",
		Description: "detection/recovery latency sweep on the ordered snooping interconnect (fn. 1, §2.3)",
		Grid:        snoopDetectGrid, Reduce: snoopDetectReduce},
	{Name: "protocols", Title: "Two protocols, one harness",
		Description: "side-by-side directory vs snooping IPC and logging overhead across the five paper workloads",
		Grid:        protocolsGrid, Reduce: protocolsReduce},
}

// Experiments returns every experiment in catalog (paper) order.
func Experiments() []Experiment { return slices.Clone(catalog) }

// Names returns the experiment names in catalog order.
func Names() []string {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.Name
	}
	return names
}

// RunExperiment runs the named experiment against the base
// configuration: it clamps degenerate option sizing (see
// runner.Options.Sanitized), expands the grid, executes every point on
// o.Workers workers (runner.RunAll: results in grid order at any worker
// count), and reduces the results. Unknown names list the valid ones.
func RunExperiment(name string, base config.Params, o runner.Options) (*Report, error) {
	i := slices.IndexFunc(catalog, func(e Experiment) bool { return e.Name == name })
	if i < 0 {
		return nil, fmt.Errorf("unknown experiment %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	e := catalog[i]
	o = o.Sanitized()
	var pts []Point
	if e.Grid != nil {
		pts = e.Grid(base, o)
	}
	rcs := make([]runner.RunConfig, len(pts))
	for i := range pts {
		rcs[i] = pts[i].Run
	}
	rep := e.Reduce(base, o, pts, runner.RunAll(rcs, o.Workers))
	rep.Experiment = e.Name
	return rep, nil
}
