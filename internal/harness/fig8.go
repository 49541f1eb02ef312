package harness

import (
	"fmt"
	"strconv"

	"safetynet/internal/config"
	"safetynet/internal/runner"
	"safetynet/internal/stats"
	"safetynet/internal/workload"
)

// fig8Sizes are the swept CLB capacities: the paper's 1 MB, 512 KB and
// 128 KB points, plus 64, 48 and 32 KB to expose the back-pressure
// cliff, which sits lower in this
// reproduction because the synthetic workloads log fewer and less bursty
// entries per interval than the commercial binaries.
func fig8Sizes() []int {
	return []int{1 << 20, 512 << 10, 128 << 10, 64 << 10, 48 << 10, 32 << 10}
}

// fig8Grid expands workload x CLB-size x perturbed-run points.
func fig8Grid(base config.Params, o runner.Options) []Point {
	var pts []Point
	for _, wl := range workload.PaperWorkloads() {
		for _, size := range fig8Sizes() {
			for i := 0; i < o.Runs; i++ {
				p := perturbed(base, o, i)
				p.SafetyNetEnabled = true
				p.CLBBytes = size
				pts = append(pts, Point{
					Labels: map[string]string{
						"workload": wl, "clb": strconv.Itoa(size),
					},
					Run: runner.RunConfig{Params: p, Workload: wl, Warmup: o.Warmup, Measure: o.Measure},
				})
			}
		}
	}
	return pts
}

// fig8Reduce reports performance per workload per CLB size, normalized
// to the largest CLB (paper Figure 8 normalizes so the biggest buffer is
// ~1.0): one row per workload, one value column per CLB size.
func fig8Reduce(_ config.Params, _ runner.Options, pts []Point, res []runner.RunResult) *Report {
	perf := map[[2]string]*stats.Sample{}
	for i, pt := range pts {
		k := [2]string{pt.Label("workload"), pt.Label("clb")}
		if perf[k] == nil {
			perf[k] = &stats.Sample{}
		}
		perf[k].Add(res[i].IPC)
	}

	sizes := fig8Sizes()
	rep := &Report{
		Title:     "Figure 8: Performance vs CLB Size",
		Subtitle:  "(normalized to the 1 MB configuration)",
		LabelCols: []string{"workload"},
		Notes: []string{
			"(paper: 1MB and 512KB statistically equivalent; 256KB degrades jbb and apache; 128KB degrades all)",
		},
	}
	for _, s := range sizes {
		rep.ValueCols = append(rep.ValueCols, fmt.Sprintf("%dKB", s>>10))
	}
	for _, wl := range workload.PaperWorkloads() {
		base := perf[[2]string{wl, strconv.Itoa(sizes[0])}].Mean()
		row := Row{Labels: []string{wl}}
		for _, size := range sizes {
			s := perf[[2]string{wl, strconv.Itoa(size)}]
			v := Value{N: s.N()}
			if base != 0 {
				v.Mean, v.Stddev = s.Mean()/base, s.Stddev()/base
			}
			row.Values = append(row.Values, v)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}
