package harness

import (
	"reflect"
	"strings"
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/topology"
	"safetynet/internal/workload"
)

func TestRegistryCatalog(t *testing.T) {
	want := []string{"table2", "fig5", "fig6", "fig7", "fig8", "recovery", "detect", "snoopdetect", "protocols"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, e := range Experiments() {
		if e.Title == "" || e.Description == "" {
			t.Errorf("experiment %s lacks a title or description", e.Name)
		}
	}
}

func TestRunExperimentUnknownName(t *testing.T) {
	_, err := RunExperiment("fig9", config.Default(), runner.QuickOptions())
	if err == nil {
		t.Fatal("unknown experiment must error")
	}
	if !strings.Contains(err.Error(), "fig6") {
		t.Errorf("error %q does not list valid names", err)
	}
}

func TestRunExperimentTable2(t *testing.T) {
	rep, err := RunExperiment("table2", config.Default(), runner.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "table2" || len(rep.Rows) == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.Render(), "2D torus") {
		t.Error("render missing torus row")
	}
	checkExperimentGolden(t, rep)
}

// multiFaultPlan layers periodic message drops with a half-switch kill —
// a combination the old flat fault descriptor could not express.
func multiFaultPlan() fault.Plan {
	return fault.Plan{
		fault.DropEvery{Start: 300_000, Period: 400_000},
		fault.KillSwitch{Node: victimSwitchNode, Axis: topology.EW, At: 500_000},
	}
}

func TestRunMultiFaultPlan(t *testing.T) {
	res := runner.Run(runner.RunConfig{
		Params: config.Default(), Workload: "barnes",
		Warmup: 200_000, Measure: 1_400_000,
		Fault: multiFaultPlan(),
	})
	if res.Crashed {
		t.Fatalf("protected system crashed under the multi-fault plan: %s", res.CrashCause)
	}
	if res.Recoveries == 0 {
		t.Fatal("multi-fault plan caused no recoveries")
	}
	if res.NetDropped == 0 {
		t.Fatal("no messages lost despite drops and a dead switch")
	}
}

func TestRunInvalidFaultPlanReportsCrash(t *testing.T) {
	// Degenerate options can build degenerate plans (zero drop period);
	// Run must surface that as a crashed result, not a panic.
	res := runner.Run(runner.RunConfig{
		Params: config.Default(), Workload: "barnes", Warmup: 0, Measure: 4,
		Fault: fault.Plan{fault.DropEvery{Start: 0, Period: 0}},
	})
	if !res.Crashed {
		t.Fatal("invalid fault plan must mark the run crashed")
	}
	if !strings.Contains(res.CrashCause, "invalid fault plan") {
		t.Fatalf("CrashCause = %q", res.CrashCause)
	}
}

// tinyExperiment is a small experiment outside the catalog, exercising
// the grid, runner and reduce machinery quickly across two workloads.
func tinyExperiment() Experiment {
	return Experiment{
		Name:  "tiny",
		Title: "tiny determinism probe",
		Grid: func(base config.Params, o runner.Options) []Point {
			var pts []Point
			for _, wl := range []string{"barnes", "stress"} {
				for i := 0; i < 3; i++ {
					pts = append(pts, Point{
						Labels: map[string]string{"workload": wl},
						Run: runner.RunConfig{
							Params: perturbed(base, o, i), Workload: wl,
							Warmup: o.Warmup, Measure: o.Measure,
						},
					})
				}
			}
			return pts
		},
		Reduce: func(_ config.Params, _ runner.Options, pts []Point, res []runner.RunResult) *Report {
			rep := &Report{Title: "tiny", LabelCols: []string{"i", "workload"}, ValueCols: []string{"ipc"}}
			for i := range pts {
				rep.Rows = append(rep.Rows, Row{
					Labels: []string{string(rune('a' + i)), pts[i].Label("workload")},
					Values: []Value{Scalar(res[i].IPC)},
				})
			}
			return rep
		},
	}
}

func TestParallelRunsAreDeterministic(t *testing.T) {
	base := config.Default()
	o := runner.Options{Runs: 1, Warmup: 80_000, Measure: 200_000, BaseSeed: 1}
	e := tinyExperiment()
	pts := e.Grid(base, o)
	rcs := make([]runner.RunConfig, len(pts))
	for i := range pts {
		rcs[i] = pts[i].Run
	}

	// The runner must produce identical per-point results in point order
	// regardless of scheduling.
	sRes := runner.RunAll(rcs, 1)
	pRes := runner.RunAll(rcs, 4)
	if !reflect.DeepEqual(sRes, pRes) {
		t.Fatal("RunAll results differ between serial and parallel execution")
	}

	sText := e.Reduce(base, o, pts, sRes).Render()
	pText := e.Reduce(base, o, pts, pRes).Render()
	if sText != pText {
		t.Fatalf("parallel run diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", sText, pText)
	}
}

// TestSnoopBackendRun drives the snooping system through the shared
// runner: the protocol-neutral counters must be measured and a fault
// plan armed on the snoop data network must recover, not crash.
func TestSnoopBackendRun(t *testing.T) {
	p := config.Default()
	p.Protocol = config.ProtocolSnoop
	res := runner.Run(runner.RunConfig{
		Params: p, Workload: "jbb", Warmup: 150_000, Measure: 450_000,
		Fault: fault.Plan{fault.DropOnce{At: 250_000}},
	})
	if res.Crashed {
		t.Fatalf("snoop run crashed: %s", res.CrashCause)
	}
	if res.Instrs == 0 || res.IPC <= 0 || res.NetSent == 0 {
		t.Fatalf("counters not measured: %+v", res)
	}
	if res.StoresLogged == 0 || res.TransfersLogged == 0 {
		t.Fatalf("logging counters empty: %+v", res)
	}
	if res.NetDropped != 1 || res.Recoveries == 0 || res.InstrsRolledBack == 0 {
		t.Fatalf("fault did not convert into a recovery: %+v", res)
	}
}

// TestSnoopRunUnsupportedFaultReportsCrash: a plan the snoop backend
// cannot express fails at arm time and surfaces as a crashed run, never
// a panic inside a worker.
func TestSnoopRunUnsupportedFaultReportsCrash(t *testing.T) {
	p := config.Default()
	p.Protocol = config.ProtocolSnoop
	res := runner.Run(runner.RunConfig{
		Params: p, Workload: "jbb", Warmup: 0, Measure: 10_000,
		Fault: fault.Plan{fault.KillSwitch{Node: 5, Axis: topology.EW, At: 5_000}},
	})
	if !res.Crashed || !strings.Contains(res.CrashCause, "invalid fault plan") {
		t.Fatalf("res = %+v", res)
	}
}

// TestNewExperimentsDeterministicUnderWorkers: snoopdetect and
// protocols must render identically whether their points run serially or
// on a worker pool.
func TestNewExperimentsDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := config.Default()
	o := runner.Options{Runs: 1, Warmup: 100_000, Measure: 200_000, BaseSeed: 1}
	for _, name := range []string{"snoopdetect", "protocols"} {
		serial := o
		serial.Workers = 1
		parallel := o
		parallel.Workers = 4
		sRep, err := RunExperiment(name, base, serial)
		if err != nil {
			t.Fatal(err)
		}
		pRep, err := RunExperiment(name, base, parallel)
		if err != nil {
			t.Fatal(err)
		}
		if sRep.Render() != pRep.Render() {
			t.Fatalf("%s: parallel rendering differs from serial", name)
		}
		if len(sRep.Rows) == 0 {
			t.Fatalf("%s: empty report", name)
		}
		if name == "snoopdetect" {
			checkExperimentGolden(t, sRep)
		}
	}
}

// TestProtocolsReportShape checks the side-by-side grid covers every
// (workload, protocol) pair with both value columns populated.
func TestProtocolsReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := RunExperiment("protocols", config.Default(),
		runner.Options{Runs: 1, Warmup: 80_000, Measure: 160_000, BaseSeed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 10 {
		t.Fatalf("rows = %d, want 5 workloads x 2 protocols", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if len(row.Labels) != 2 || len(row.Values) != 2 {
			t.Fatalf("malformed row: %+v", row)
		}
		if row.Values[0].Crashed || row.Values[0].Mean <= 0 {
			t.Fatalf("point %v measured no throughput: %+v", row.Labels, row.Values)
		}
	}
	checkExperimentGolden(t, rep)
}

// TestRecoveryGridClampsDegeneratePeriod: a tiny measurement window must
// not produce a zero-period (unarmable) fault plan.
func TestRecoveryGridClampsDegeneratePeriod(t *testing.T) {
	pts := recoveryGrid(config.Default(), runner.Options{Runs: 1, Warmup: 0, Measure: 3, BaseSeed: 1})
	m := newTestMachineTarget(t)
	for _, pt := range pts {
		if err := pt.Run.Fault.Arm(m); err != nil {
			t.Fatalf("plan %s failed to arm: %v", pt.Run.Fault, err)
		}
	}
}

func newTestMachineTarget(t *testing.T) fault.Target {
	t.Helper()
	prof, err := workload.ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	be, err := runner.NewBackend(config.Default(), prof)
	if err != nil {
		t.Fatal(err)
	}
	return be.FaultTarget()
}

func TestParallelFig6MatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := config.Default()
	o := tinyOptions()
	serial := o
	serial.Workers = 1
	parallel := o
	parallel.Workers = 5

	sRep, err := RunExperiment("fig6", base, serial)
	if err != nil {
		t.Fatal(err)
	}
	pRep, err := RunExperiment("fig6", base, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if sRep.Render() != pRep.Render() {
		t.Fatal("fig6 parallel rendering differs from serial")
	}
	sJSON, _ := sRep.JSON()
	pJSON, _ := pRep.JSON()
	if string(sJSON) != string(pJSON) {
		t.Fatal("fig6 parallel JSON differs from serial")
	}
}
