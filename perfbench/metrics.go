package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one printed metric and its unit. The two tables below
// are the benchmark's whole vocabulary; BENCHMARK.json at the repository
// root lists the same names and units (a test keeps them in step).
type metricDef struct {
	Name, Unit string
}

// endToEnd are printed by every untraced run (--trace 0), on every
// workload. README.md defines each one per workload.
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"sim_cycles_per_cpu_s", "cycles/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are printed by every traced run (--trace 1), on every
// workload; a layer the workload does not reach, or whose counter its
// entry point does not expose, reads 0.
var perLayer = []metricDef{
	{"sim_ipc", "instr/cycle"},
	{"sim.events", "count"},
	{"sim.events_per_cycle", "events/cycle"},
	{"sim.events_per_s", "1/s"},
	{"sim.cpu_share", "ratio"},
	{"cache.cpu_share", "ratio"},
	{"protocol.loads", "count"},
	{"protocol.stores", "count"},
	{"protocol.misses", "count"},
	{"protocol.l1_hit_ratio", "ratio"},
	{"protocol.requests", "count"},
	{"protocol.retries", "count"},
	{"protocol.nacks", "count"},
	{"protocol.timeouts", "count"},
	{"protocol.dir_forwards", "count"},
	{"protocol.cpu_share", "ratio"},
	{"network.sent", "count"},
	{"network.hops", "count"},
	{"network.bytes", "bytes"},
	{"network.dropped", "count"},
	{"network.cpu_share", "ratio"},
	{"proc.instrs", "count"},
	{"proc.mem_refs", "count"},
	{"proc.ckpt_stall_cycles", "cycles"},
	{"proc.backpressure_stalls", "count"},
	{"proc.cpu_share", "ratio"},
	{"workload.cpu_share", "ratio"},
	{"core.clb_appends", "count"},
	{"core.clb_full_rejections", "count"},
	{"core.clb_peak_bytes", "bytes"},
	{"core.clb_stall_cycles", "cycles"},
	{"core.validations", "count"},
	{"core.recoveries", "count"},
	{"core.recovery_cycles_p50", "cycles"},
	{"core.instrs_rolled_back", "count"},
	{"core.cpu_share", "ratio"},
	{"snoop.events", "count"},
	{"snoop.run_s_p50", "s"},
	{"snoop.cpu_share", "ratio"},
	{"runner.setup_ms_p50", "ms"},
	{"runner.setup_ms_p90", "ms"},
	{"runner.directory_run_s_p50", "s"},
	{"runner.worker_busy_frac", "ratio"},
	{"machine.cpu_share", "ratio"},
	{"campaign.expand_ms", "ms"},
	{"campaign.reduce_ms", "ms"},
	{"campaign.render_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.first_event_ms", "ms"},
	{"serve.event_gap_ms_p50", "ms"},
	{"serve.event_gap_ms_p90", "ms"},
	{"serve.done_to_report_ms", "ms"},
	{"serve.store_bytes", "bytes"},
	{"serve.cpu_share", "ratio"},
	{"nethttp.cpu_share", "ratio"},
	{"runtime.cpu_share", "ratio"},
	{"runtime.memclr_share", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs_per_kcycle", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLadder are the tail percentiles the rule chooses among.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// dist is a sample of host times (or gaps) with the percentile rule
// applied: the median, plus the highest ladder percentile that still
// has at least minBeyond samples beyond it.
type dist struct {
	sorted []float64
}

func newDist(v []float64) dist {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return dist{sorted: s}
}

func (d dist) n() int { return len(d.sorted) }

// at returns the nearest-rank p-th percentile and how many samples lie
// strictly beyond its rank. An empty sample reads 0.
func (d dist) at(p float64) (v float64, beyond int) {
	n := len(d.sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return d.sorted[rank-1], n - rank
}

func (d dist) p50() float64 {
	v, _ := d.at(50)
	return v
}

// tail returns the highest ladder percentile with at least minBeyond
// samples beyond it; ok is false when the sample is too small for any.
func (d dist) tail() (p, v float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if v, b := d.at(p); b >= minBeyond {
			return p, v, b, true
		}
	}
	return 0, 0, 0, false
}

// String prints the rule's view of the sample: count, median and the
// tail percentile with its beyond-count.
func (d dist) String() string {
	s := fmt.Sprintf("n=%d p50=%.6g", d.n(), d.p50())
	if p, v, b, ok := d.tail(); ok {
		return s + fmt.Sprintf(" p%g=%.6g (%d beyond)", p, v, b)
	}
	return s + fmt.Sprintf(" (no tail: fewer than %d samples beyond any of p%g)", minBeyond, tailLadder[len(tailLadder)-1])
}

// stridewiseMedian takes units of equal stride counts and sums, over
// the stride positions, each position's median across the units: the
// time of one unit with every stride at its typical speed. A short
// host stall then costs one stride sample instead of a whole unit.
func stridewiseMedian(units [][]float64) float64 {
	if len(units) == 0 {
		return 0
	}
	var sum float64
	col := make([]float64, len(units))
	for i := range units[0] {
		for u := range units {
			col[u] = units[u][i]
		}
		sum += median(col)
	}
	return sum
}

// median is the nearest-rank median of a small sample of repeat
// figures (setup times, whole-unit times).
func median(v []float64) float64 { return newDist(v).p50() }
