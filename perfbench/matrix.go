package main

import (
	"context"
	_ "embed"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"safetynet/internal/backend"
	"safetynet/internal/campaign"
	"safetynet/internal/config"
	"safetynet/internal/runner"
	"safetynet/internal/snoop"
	"safetynet/internal/workload"
)

// matrixJSON is a frozen copy of examples/campaigns/availability-matrix.json:
// the benchmark's input must not move when the example is edited.
//
//go:embed campaigns/availability-matrix.json
var matrixJSON []byte

// loadMatrix parses the frozen campaign and starts its seed range at
// the workload seed (seed 1 is the checked-in campaign exactly).
func loadMatrix(seed uint64, scaleTo uint64) (*campaign.Campaign, error) {
	c, err := campaign.Parse(matrixJSON)
	if err != nil {
		return nil, err
	}
	if c.Seeds == nil {
		return nil, fmt.Errorf("matrix campaign has no seed range")
	}
	c.Seeds.Start = seed
	if scaleTo > 0 {
		c = c.Scaled(scaleTo)
	}
	return c, nil
}

// matrixSetup times loading and expanding the campaign in CPU time.
func matrixSetup(cfg settings, scaleTo uint64) (time.Duration, []campaign.Run, error) {
	c0 := cpuNow()
	c, err := loadMatrix(cfg.seed, scaleTo)
	if err != nil {
		return 0, nil, err
	}
	runs, err := c.Expand()
	return cpuNow() - c0, runs, err
}

// checkRuns counts the runs that failed: a missed expect block or a
// crash the run did not expect. It returns the failures found.
func checkRuns(r *result, runs []campaign.Run, crashed func(i int) bool, recoveries func(i int) int) int {
	failed := 0
	for i := range runs {
		exp := runs[i].Scenario.Expect
		err := exp.Check(crashed(i), recoveries(i))
		if err == nil && crashed(i) && (exp == nil || !exp.Crash) {
			err = fmt.Errorf("crashed unexpectedly")
		}
		if err != nil {
			failed++
			if failed <= 3 {
				r.problem("run %s: %v", runs[i].Desc, err)
			}
		}
	}
	return failed
}

// totalCycles is the simulated horizon of every run of an expansion.
func totalCycles(runs []campaign.Run) float64 {
	var t float64
	for i := range runs {
		t += float64(runs[i].Scenario.TotalCycles())
	}
	return t
}

// matrixExec is one campaign.Execute of the matrix.
type matrixExec struct {
	wall, cpu time.Duration
	runTimes  []float64 // host seconds per run, in expansion order
	results   []runner.RunResult
	report    *campaign.Report
	json      []byte
}

// matrixOnce executes the campaign through campaign.Execute on a
// worker pool nproc wide, then checks its report.
//
// Execute exposes completions only, so each run's host time is inferred
// from the pool's dispatch order: runs are handed out in expansion
// order to whichever of the W workers frees first, so the first W runs
// start with the execution and run i ≥ W starts when the (i-W+1)-th
// completion frees its worker.
func matrixOnce(cfg settings, c *campaign.Campaign, runs []campaign.Run, r *result) (matrixExec, error) {
	var e matrixExec
	runtime.GC() // drop the previous execution's garbage before timing this one
	n := len(runs)
	doneAt := make([]time.Duration, n)
	var completions []time.Duration
	e.results = make([]runner.RunResult, n)
	t0, c0 := time.Now(), cpuNow()
	rep, err := c.Execute(campaign.Options{
		Workers: cfg.workers,
		OnResult: func(done, total int, run campaign.Run, res runner.RunResult) {
			at := time.Since(t0)
			doneAt[run.Index] = at
			completions = append(completions, at)
			e.results[run.Index] = res
		},
	})
	if err != nil {
		return e, err
	}
	e.wall, e.cpu = time.Since(t0), cpuNow()-c0
	w := min(runner.Workers(cfg.workers), n)
	e.runTimes = make([]float64, n)
	for i := range runs {
		var start time.Duration
		if i >= w {
			start = completions[i-w]
		}
		e.runTimes[i] = (doneAt[i] - start).Seconds()
	}
	e.report = rep
	if e.json, err = rep.JSON(); err != nil {
		return e, err
	}
	r.attempted += n
	r.failed += checkRuns(r, runs,
		func(i int) bool { return e.results[i].Crashed },
		func(i int) int { return e.results[i].Recoveries })
	if len(rep.ExpectFailures) > 0 {
		r.problem("report lists %d expect failures", len(rep.ExpectFailures))
	}
	r.checkDigest(e.json)
	return e, nil
}

// meanIPC is the mean IPC of the runs that did not crash, summed in
// expansion order so it is deterministic.
func meanIPC(res []runner.RunResult) float64 {
	var sum float64
	n := 0
	for _, x := range res {
		if !x.Crashed {
			sum += x.IPC
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runMatrix is the matrix workload: the availability-matrix campaign at
// its own horizon through campaign.Execute, repeated for the measuring
// time.
func runMatrix(cfg settings) (*result, error) {
	r := newResult()
	scale := cfg.size.matrixScaleTo
	_, runs, err := matrixSetup(cfg, scale)
	if err != nil {
		return nil, err
	}
	c, err := loadMatrix(cfg.seed, scale)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceMatrix(cfg, c, runs, r)
	}
	var setups, walls, cpus, runTimes []float64
	var last matrixExec
	err = measureLoop(cfg.seconds, func() error {
		for i := 0; i < cfg.size.probes[cfg.workload]; i++ {
			d, _, err := matrixSetup(cfg, scale)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		e, err := matrixOnce(cfg, c, runs, r)
		if err != nil {
			return err
		}
		walls = append(walls, e.wall.Seconds())
		cpus = append(cpus, e.cpu.Seconds())
		runTimes = append(runTimes, e.runTimes...)
		last = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.checkGolden(cfg)

	cpu := median(cpus)
	r.note("executions: %d of %d runs; CPU s per execution %v; wall s per execution %v", len(cpus), len(runs), cpus, walls)
	r.note("host seconds per run: %v", newDist(runTimes))
	r.note("setup CPU s: %v", newDist(setups))
	m := r.metrics
	m["cpu_s"] = cpu
	m["setup_s"] = median(setups)
	m["sim_cycles_per_cpu_s"] = totalCycles(runs) / cpu
	m["peak_rss_mb"] = peakRSSMB()
	r.note("sim_ipc %v", meanIPC(last.results))
	return r, nil
}

// setupTimes builds and starts a backend for every run's parameters,
// outside any run span, and returns the CPU milliseconds each took.
func setupTimes(rcs []runner.RunConfig) ([]float64, error) {
	out := make([]float64, len(rcs))
	for i, rc := range rcs {
		prof, err := workload.ByName(rc.Workload)
		if err != nil {
			return nil, err
		}
		runtime.GC() // as in oltpSetup: same starting heap for every sample
		c0 := cpuNow()
		be, err := runner.NewBackend(rc.Params, prof)
		if err != nil {
			return nil, err
		}
		be.Start()
		out[i] = ms(cpuNow() - c0)
	}
	return out, nil
}

// snoopEvents drives the expansion's first fault-free snoop run itself,
// outside every run span, and returns the events its engine executed:
// runner.RunResult does not carry that count.
func snoopEvents(rcs []runner.RunConfig) (uint64, error) {
	for _, rc := range rcs {
		if rc.Params.ProtocolName() != config.ProtocolSnoop || len(rc.Fault) > 0 {
			continue
		}
		prof, err := workload.ByName(rc.Workload)
		if err != nil {
			return 0, err
		}
		be, err := runner.NewBackend(rc.Params, prof)
		if err != nil {
			return 0, err
		}
		sys, ok := be.(*snoop.System)
		if !ok {
			return 0, fmt.Errorf("snoop run: backend is %T, want the snoop system", be)
		}
		be.Start()
		h := rc.Warmup + rc.Measure
		if reached := be.Run(h); reached < h {
			_, cause := be.CrashInfo()
			return 0, fmt.Errorf("snoop run stopped at cycle %d of %d: %s", reached, h, cause)
		}
		return sys.Engine().Executed(), nil
	}
	return 0, fmt.Errorf("the campaign has no fault-free snoop run")
}

// campaignCounts fills the per-layer counts a campaign workload can
// read: those runner.RunResult carries, summed over the runs, plus the
// validations its observers counted.
func campaignCounts(m map[string]float64, res []runner.RunResult, validations uint64) {
	var recCycles []uint64
	for _, x := range res {
		m["protocol.requests"] += float64(x.CoherenceReqs)
		m["protocol.stores"] += float64(x.StoresTotal)
		m["network.sent"] += float64(x.NetSent)
		m["network.dropped"] += float64(x.NetDropped)
		m["proc.instrs"] += float64(x.Instrs)
		m["core.clb_appends"] += float64(x.StoresLogged + x.TransfersLogged + x.DirLogged)
		m["core.clb_peak_bytes"] = max(m["core.clb_peak_bytes"], float64(x.CLBPeakBytes))
		m["core.clb_stall_cycles"] += float64(x.CLBStallCycles)
		m["core.recoveries"] += float64(x.Recoveries)
		m["core.instrs_rolled_back"] += float64(x.InstrsRolledBack)
		for _, c := range x.RecoveryCycles {
			recCycles = append(recCycles, uint64(c))
		}
	}
	m["core.validations"] = float64(validations)
	m["core.recovery_cycles_p50"] = recoveryP50(recCycles)
}

// validationCounter is an observer factory counting checkpoint
// advances (validations) across every run.
func validationCounter(n *atomic.Uint64) func(campaign.Run) *backend.Observer {
	return func(campaign.Run) *backend.Observer {
		return &backend.Observer{CheckpointAdvanced: func(uint64, uint32) { n.Add(1) }}
	}
}

// runSplit reports the median host seconds of directory and snoop runs.
func runSplit(rcs []runner.RunConfig, secs []float64) (dir, snoop dist) {
	var d, s []float64
	for i, rc := range rcs {
		if rc.Params.ProtocolName() == config.ProtocolSnoop {
			s = append(s, secs[i])
		} else {
			d = append(d, secs[i])
		}
	}
	return newDist(d), newDist(s)
}

// traceMatrix runs the matrix once through campaign.Execute untraced,
// then drives the same RunConfigs through runner.RunCtx on its own
// nproc-wide loop under spans and a CPU profile; the traced results,
// reduced by campaign.Reduce, must equal the untraced report byte for
// byte.
func traceMatrix(cfg settings, c *campaign.Campaign, runs []campaign.Run, r *result) (*result, error) {
	plain, err := matrixOnce(cfg, c, runs, r)
	if err != nil {
		return nil, err
	}
	r.checkGolden(cfg)
	setups, err := setupTimes(campaign.RunConfigs(runs, nil))
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	var validations atomic.Uint64
	var (
		rcs      []runner.RunConfig
		res      []runner.RunResult
		secs     []float64 // host seconds per run, in expansion order
		rep      *campaign.Report
		loop     time.Duration
		wall     time.Duration
		jsonText []byte
		text     string
		w        = min(runner.Workers(cfg.workers), len(runs))
	)
	shares, mem, err := profiled(func() error {
		t0 := time.Now()
		id := tr.begin("campaign.Expand", 0)
		truns, err := c.Expand()
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("campaign.RunConfigs", 0)
		rcs = campaign.RunConfigs(truns, validationCounter(&validations))
		tr.end(id)

		res = make([]runner.RunResult, len(rcs))
		secs = make([]float64, len(rcs))
		idx := make(chan int)
		var wg sync.WaitGroup
		var runErr atomic.Value
		tl := time.Now()
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func(worker string) {
				defer wg.Done()
				for i := range idx {
					rc := rcs[i]
					id := tr.begin("runner.RunCtx", 0, "backend", rc.Params.ProtocolName(),
						"variant", truns[i].Label(campaign.LabelVariant), "worker", worker)
					t := time.Now()
					x, err := runner.RunCtx(context.Background(), rc)
					secs[i] = time.Since(t).Seconds()
					tr.end(id)
					if err != nil {
						runErr.Store(err)
					}
					res[i] = x
				}
			}(fmt.Sprint(k))
		}
		for i := range rcs {
			idx <- i
		}
		close(idx)
		wg.Wait()
		loop = time.Since(tl)
		if err, _ := runErr.Load().(error); err != nil {
			return err
		}
		id = tr.begin("campaign.Reduce", 0)
		rep = campaign.Reduce(c, truns, res)
		tr.end(id)
		id = tr.begin("report.render", 0)
		jsonText, err = rep.JSON()
		text = rep.Render()
		tr.end(id)
		wall = time.Since(t0)
		return err
	})
	if err != nil {
		return nil, err
	}
	if string(jsonText) != string(plain.json) || text != plain.report.Render() {
		r.problem("traced report differs from the campaign.Execute report")
	}
	if err := tr.write(spanFile(cfg)); err != nil {
		return nil, err
	}
	events, err := snoopEvents(rcs)
	if err != nil {
		return nil, err
	}

	m := r.metrics
	m["sim_ipc"] = meanIPC(res)
	campaignCounts(m, res, validations.Load())
	m["snoop.events"] = float64(events)
	var busy float64
	for _, s := range secs {
		busy += s
	}
	dir, snoop := runSplit(rcs, secs)
	sd := newDist(setups)
	m["snoop.run_s_p50"] = snoop.p50()
	m["runner.directory_run_s_p50"] = dir.p50()
	m["runner.setup_ms_p50"] = sd.p50()
	m["runner.setup_ms_p90"], _ = sd.at(90)
	m["runner.worker_busy_frac"] = busy / (float64(w) * loop.Seconds())
	m["campaign.expand_ms"] = tr.totalMS("campaign.Expand")
	m["campaign.reduce_ms"] = tr.totalMS("campaign.Reduce")
	m["campaign.render_ms"] = tr.totalMS("report.render")
	setLayerShares(m, shares, mem, totalCycles(runs))
	m["trace.overhead_pct"] = overheadPct(wall.Seconds(), plain.wall.Seconds())
	r.note("runner.setup_ms: %v", sd)
	r.note("directory run s: %v; snoop run s: %v", dir, snoop)
	r.note("untraced wall s %.6g, traced wall s %.6g", plain.wall.Seconds(), wall.Seconds())
	return r, nil
}
