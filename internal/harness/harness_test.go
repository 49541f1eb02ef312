package harness

import (
	"slices"
	"strings"
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/sim"
	"safetynet/internal/workload"
)

// tinyOptions keeps harness tests fast while still covering several
// checkpoint intervals.
func tinyOptions() runner.Options {
	return runner.Options{Runs: 1, Warmup: 300_000, Measure: 700_000, BaseSeed: 1}
}

func TestRunProducesMeasurements(t *testing.T) {
	p := config.Default()
	res := runner.Run(runner.RunConfig{Params: p, Workload: "barnes", Warmup: 200_000, Measure: 500_000})
	if res.Crashed {
		t.Fatalf("crashed: %s", res.CrashCause)
	}
	if res.Instrs == 0 || res.IPC <= 0 {
		t.Fatalf("no progress measured: %+v", res)
	}
	if res.StoresTotal == 0 || res.StoresLogged == 0 {
		t.Fatal("store counters empty")
	}
	if res.Bandwidth.Total() == 0 {
		t.Fatal("bandwidth counters empty")
	}
	if res.CLBPeakBytes == 0 {
		t.Fatal("CLB peak not tracked")
	}
}

func TestRunMeasurementExcludesWarmup(t *testing.T) {
	p := config.Default()
	short := runner.Run(runner.RunConfig{Params: p, Workload: "barnes", Warmup: 200_000, Measure: 300_000})
	long := runner.Run(runner.RunConfig{Params: p, Workload: "barnes", Warmup: 200_000, Measure: 600_000})
	if long.Instrs <= short.Instrs {
		t.Fatal("longer window must retire more instructions")
	}
	// Warmup cold misses must not leak into the measured miss-heavy
	// counters: the measured IPC of the longer run should not collapse.
	if long.IPC < short.IPC*0.5 {
		t.Fatalf("IPC collapsed between windows: %.3f vs %.3f", long.IPC, short.IPC)
	}
}

func TestRunCrashPropagates(t *testing.T) {
	p := config.Unprotected()
	res := runner.Run(runner.RunConfig{
		Params: p, Workload: "barnes", Warmup: 100_000, Measure: 2_000_000,
		Fault: fault.Plan{fault.DropOnce{At: 300_000}},
	})
	if !res.Crashed || res.CrashCause == "" {
		t.Fatalf("expected crash, got %+v", res)
	}
}

func TestRunFaultPlans(t *testing.T) {
	p := config.Default()
	res := runner.Run(runner.RunConfig{
		Params: p, Workload: "barnes", Warmup: 200_000, Measure: 1_200_000,
		Fault: fault.Plan{fault.DropEvery{Start: 300_000, Period: 400_000}},
	})
	if res.Crashed {
		t.Fatal("protected run crashed")
	}
	if res.Recoveries == 0 {
		t.Fatal("periodic faults caused no recoveries")
	}
	if len(res.RecoveryCycles) != res.Recoveries {
		t.Fatal("recovery latency list inconsistent")
	}
}

// runGolden runs one catalog experiment and checks its report against
// the experiment's golden.
func runGolden(t *testing.T, name string, o runner.Options) *Report {
	t.Helper()
	rep, err := RunExperiment(name, config.Default(), o)
	if err != nil {
		t.Fatal(err)
	}
	checkExperimentGolden(t, rep)
	return rep
}

// rowByLabels returns the report row whose label cells are labels.
func rowByLabels(t *testing.T, rep *Report, labels ...string) Row {
	t.Helper()
	for _, row := range rep.Rows {
		if slices.Equal(row.Labels, labels) {
			return row
		}
	}
	t.Fatalf("%s: no row %v", rep.Experiment, labels)
	return Row{}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := runGolden(t, "fig6", tinyOptions())
	if len(rep.Rows) != len(fig6Intervals()) {
		t.Fatalf("points = %d", len(rep.Rows))
	}
	// Columns: all stores, all coherence requests, stores->CLB,
	// coherence requests->CLB (per 1000 instructions).
	const stores, storesCLB = 0, 2
	first, last := rep.Rows[0].Values, rep.Rows[len(rep.Rows)-1].Values
	// "All stores" is interval-independent; the logged subset falls by
	// an order of magnitude or more (paper Figure 6).
	if ratio := first[stores].Mean / last[stores].Mean; ratio < 0.8 || ratio > 1.25 {
		t.Errorf("all-stores rate should be flat across intervals, ratio %.2f", ratio)
	}
	if first[storesCLB].Mean < 4*last[storesCLB].Mean {
		t.Errorf("stores->CLB must fall off strongly: %.2f -> %.2f",
			first[storesCLB].Mean, last[storesCLB].Mean)
	}
	for _, row := range rep.Rows {
		if row.Values[storesCLB].Mean > row.Values[stores].Mean {
			t.Errorf("interval %s: logged stores exceed all stores", row.Labels[0])
		}
	}
	if !strings.Contains(rep.Render(), "Figure 6") {
		t.Error("render missing title")
	}
}

func TestFig7LoggingShrinksWithInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := runGolden(t, "fig7", tinyOptions())
	// Columns: hits, fills, coherence, logging, in percent of cache-port
	// occupancy; frac converts back to a fraction.
	const logging = 3
	frac := func(v Value) float64 { return v.Mean / 100 }
	first, last := rep.Rows[0].Values, rep.Rows[len(rep.Rows)-1].Values
	if frac(first[logging]) <= frac(last[logging]) {
		t.Errorf("logging bandwidth must shrink with interval: %.4f -> %.4f",
			frac(first[logging]), frac(last[logging]))
	}
	if frac(first[logging]) > 0.10 {
		t.Errorf("logging fraction %.3f implausibly high (paper: a few percent at short intervals)", frac(first[logging]))
	}
	for _, row := range rep.Rows {
		sum := 0.0
		for _, v := range row.Values {
			sum += frac(v)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("fractions sum to %.3f at interval %s", sum, row.Labels[0])
		}
	}
	if !strings.Contains(rep.Render(), "Figure 7") {
		t.Error("render missing title")
	}
}

func TestRecoveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := tinyOptions()
	o.Measure = 1_500_000
	rep := runGolden(t, "recovery", o)
	if rowByLabels(t, rep, "recoveries", "count").Values[0].Mean == 0 {
		t.Fatal("no recoveries observed")
	}
	// The paper's claim: recovery latency well under a millisecond
	// (1e6 cycles at 1 GHz).
	if coord := rowByLabels(t, rep, "coordination latency", "cycles").Values[0].Mean; coord >= 1e6 {
		t.Fatalf("recovery coordination %.0f cycles: not sub-millisecond", coord)
	}
	if rowByLabels(t, rep, "throughput with faults", "aggregate IPC").Values[0].Mean <= 0 {
		t.Fatal("faulty run made no progress")
	}
	if !strings.Contains(rep.Render(), "Recovery latency") {
		t.Error("render missing title")
	}
}

func TestDetectExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := runGolden(t, "detect", tinyOptions())
	if !strings.Contains(rep.Title, "(configured tolerance: 400000 cycles)") {
		t.Fatalf("title %q: tolerance is not 400000 cycles", rep.Title)
	}
	for _, row := range rep.Rows {
		// Labels: detection latency, recovered, crashed.
		if row.Labels[2] != "false" {
			t.Errorf("detection latency %s crashed the protected system", row.Labels[0])
		}
		if row.Labels[1] != "true" {
			t.Errorf("detection latency %s: fault never recovered", row.Labels[0])
		}
	}
	if !strings.Contains(rep.Render(), "Detection-latency") {
		t.Error("render missing title")
	}
}

func TestVictimSwitchStable(t *testing.T) {
	_ = sim.Time(0)
	if victimSwitchNode != 5 {
		t.Fatal("victim switch changed; update the fig5 hard-fault docs")
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := runner.Options{Runs: 1, Warmup: 200_000, Measure: 500_000, BaseSeed: 1}
	rep := runGolden(t, "fig5", o)
	for _, wl := range workload.PaperWorkloads() {
		bar := func(name string) Value { return rowByLabels(t, rep, wl, name).Values[0] }
		if !bar("Unprotected with fault").Crashed {
			t.Errorf("%s: unprotected system survived the fault", wl)
		}
		v := bar("SafetyNet fault-free")
		if v.Crashed {
			t.Errorf("%s: SafetyNet fault-free crashed", wl)
		}
		// Short single-run windows are noisy; the paper's claim is
		// statistical similarity, so just bound the deviation.
		if v.Mean < 0.80 || v.Mean > 1.25 {
			t.Errorf("%s: SafetyNet fault-free normalized perf %.3f far from 1.0", wl, v.Mean)
		}
		if v := bar("SafetyNet with transient faults"); v.Crashed || v.Mean < 0.5 {
			t.Errorf("%s: transient-fault bar %.3f (crash=%v)", wl, v.Mean, v.Crashed)
		}
		if v := bar("SafetyNet with a hard fault"); v.Crashed || v.Mean < 0.5 {
			t.Errorf("%s: hard-fault bar %.3f (crash=%v)", wl, v.Mean, v.Crashed)
		}
	}
	if !strings.Contains(rep.Render(), "Figure 5") {
		t.Error("render missing title")
	}
}

func TestFig8BackpressureCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := runner.Options{Runs: 1, Warmup: 200_000, Measure: 500_000, BaseSeed: 1}
	rep := runGolden(t, "fig8", o)
	// One row per workload; columns run from the largest CLB to the
	// smallest.
	degraded := 0
	for _, row := range rep.Rows {
		mBig := row.Values[0].Mean
		mSmall := row.Values[len(row.Values)-1].Mean
		if mBig < 0.99 || mBig > 1.01 {
			t.Errorf("%s: largest CLB should normalize to 1.0, got %.3f", row.Labels[0], mBig)
		}
		if mSmall < mBig*0.9 {
			degraded++
		}
	}
	if degraded < 3 {
		t.Errorf("only %d workloads degraded at the smallest CLB; expected the cliff", degraded)
	}
	if !strings.Contains(rep.Render(), "Figure 8") {
		t.Error("render missing title")
	}
}
