package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"safetynet/internal/campaign"
	"safetynet/internal/runner"
	"safetynet/internal/serve"
)

// daemon is an in-process serve.Server on a loopback port.
type daemon struct {
	dir    string
	client *serve.Client
	tr     *http.Transport
	cancel context.CancelFunc
	done   chan error
}

// startDaemon opens a fresh store under root and serves it on
// 127.0.0.1:0 with Workers = nproc. Its client holds at most two
// connections: the event stream and one request.
func startDaemon(root string, workers int) (*daemon, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{StoreDir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{dir: dir, cancel: cancel, done: make(chan error, 1),
		tr: &http.Transport{MaxConnsPerHost: 2}}
	go func() { d.done <- srv.Serve(ctx, ln) }()
	d.client = serve.NewClient("http://" + ln.Addr().String())
	d.client.HTTPClient = &http.Client{Transport: d.tr}
	return d, nil
}

// stop shuts the daemon down, waits for it, and removes its store.
func (d *daemon) stop() error {
	d.cancel()
	err := <-d.done
	d.tr.CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

// storeBytes is the size of every file in the daemon's store.
func (d *daemon) storeBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(d.dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// servedProbe starts a fresh daemon and times it, in CPU time, from
// its start to the first accepted submit. It opens no event stream, so
// stopping the daemon right after cannot meet the serve shutdown
// defect described in README.md ("Known defect").
func servedProbe(cfg settings, doc []byte) (setup time.Duration, err error) {
	runtime.GC()
	c0 := cpuNow()
	d, err := startDaemon(filepath.Join(cfg.out, "probe"), cfg.workers)
	if err != nil {
		return 0, err
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	_, err = d.client.Submit(context.Background(), doc, cfg.size.servedScaleTo)
	return cpuNow() - c0, err
}

// submission is one served campaign, submit to report.
type submission struct {
	wall, cpu, first, done time.Duration
	// runTimes are host seconds per run in expansion order; gaps the
	// times between consecutive run events.
	runTimes, gaps []float64
	ipc            []float64 // per run, expansion order
	report         []byte    // the JSON report as fetched
}

// submitOnce submits the campaign, follows its event stream to the end
// frame and fetches the JSON report. Every submission of a run must
// fetch the same report; checkReport later compares it with the local
// one.
//
// The daemon runs run i on shard i mod S, each shard in expansion
// order, so a run's host time is its event's arrival minus that of the
// shard's previous run (the submit call, for a shard's first run).
func submitOnce(cfg settings, d *daemon, doc []byte, runs []campaign.Run, tr *tracer, r *result) (submission, error) {
	var s submission
	runtime.GC() // drop the previous submission's garbage before timing this one
	ctx := context.Background()
	n := len(runs)
	shards := campaign.Shards(cfg.workers, n)
	arrived := make([]time.Duration, n)
	seen := make([]bool, n)
	events := make([]serve.Event, n)
	s.ipc = make([]float64, n)
	bad := false
	fail := func(format string, args ...any) {
		r.problem(format, args...)
		bad = true
	}

	t0, c0 := time.Now(), cpuNow()
	id := tr.begin("serve.Submit", 0)
	st, err := d.client.Submit(ctx, doc, cfg.size.servedScaleTo)
	tr.end(id)
	if err != nil {
		r.attempted += n
		r.failed += n
		r.problem("submit: %v", err)
		return s, nil
	}
	var last time.Duration
	count := 0
	id = tr.begin("serve.Events", 0)
	end, err := d.client.Events(ctx, st.ID, 0, func(e serve.Event) {
		at := time.Since(t0)
		if count == 0 {
			s.first = at
		} else {
			s.gaps = append(s.gaps, (at - last).Seconds())
		}
		last = at
		count++
		if e.Index < 0 || e.Index >= n || seen[e.Index] {
			fail("event for run index %d is out of range or repeated", e.Index)
			return
		}
		seen[e.Index], arrived[e.Index], events[e.Index], s.ipc[e.Index] = true, at, e, e.IPC
	})
	tr.end(id)
	s.done = time.Since(t0)
	if err != nil {
		fail("events: %v", err)
	} else if end.State != serve.StateDone || end.Runs != n || count != n {
		fail("job ended %s with %d runs and %d events, want done with %d", end.State, end.Runs, count, n)
	}
	id = tr.begin("serve.Report", 0)
	s.report, err = d.client.Report(ctx, st.ID, "json")
	tr.end(id)
	s.wall, s.cpu = time.Since(t0), cpuNow()-c0
	if err != nil {
		fail("report: %v", err)
	}
	r.attempted += n
	if bad {
		r.failed += n
		return s, nil
	}
	r.failed += checkRuns(r, runs,
		func(i int) bool { return events[i].Crashed },
		func(i int) int { return events[i].Recoveries })
	s.runTimes = make([]float64, n)
	for i := range runs {
		start := time.Duration(0)
		if i >= shards {
			start = arrived[i-shards]
		}
		s.runTimes[i] = (arrived[i] - start).Seconds()
	}
	r.checkDigest(s.report)
	return s, nil
}

// servedReference runs the campaign locally at the served scale: the
// report the daemon must reproduce, and the per-run results behind the
// per-layer counts. It runs after the measured submissions, so its
// memory does not count in their peak RSS.
func servedReference(cfg settings, c *campaign.Campaign, runs []campaign.Run, validations *atomic.Uint64, r *result) ([]byte, []runner.RunResult, error) {
	res := make([]runner.RunResult, len(runs))
	o := campaign.Options{
		Workers: cfg.workers,
		ScaleTo: cfg.size.servedScaleTo,
		OnResult: func(_, _ int, run campaign.Run, x runner.RunResult) {
			res[run.Index] = x
		},
	}
	if validations != nil {
		o.Observer = validationCounter(validations)
	}
	rep, err := c.Execute(o)
	if err != nil {
		return nil, nil, err
	}
	js, err := rep.Encode("json")
	if err != nil {
		return nil, nil, err
	}
	if len(rep.ExpectFailures) > 0 {
		r.problem("local reference: %d expect failures", len(rep.ExpectFailures))
	}
	return []byte(js + "\n"), res, nil
}

// checkReport compares the served report with the local one. The
// submissions' digests already agree with each other, so one report
// stands for all of them; a mismatch fails every submitted run.
func checkReport(served, local []byte, r *result) {
	if string(served) != string(local) {
		r.problem("served report differs from the local report of the same campaign at the same scale")
		r.failed = r.attempted
	}
}

// runServed is the served-short workload: the matrix campaign at a
// short scale_to, submitted to an in-process daemon by one closed-loop
// client, repeated for the measuring time. Before each submission,
// probes on fresh daemons sample setup times, so those samples spread
// over the whole run.
func runServed(cfg settings) (*result, error) {
	r := newResult()
	c, err := loadMatrix(cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	doc, err := c.Encode()
	if err != nil {
		return nil, err
	}
	runs, err := c.Scaled(cfg.size.servedScaleTo).Expand()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(filepath.Join(cfg.out, "served"), cfg.workers)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := d.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping the daemon:", err)
		}
	}()
	if cfg.trace {
		return traceServed(cfg, c, d, doc, runs, r)
	}

	var walls, cpus, setups, runTimes []float64
	var last submission
	err = measureLoop(cfg.seconds, func() error {
		for i := 0; i < cfg.size.probes[cfg.workload]; i++ {
			d, err := servedProbe(cfg, doc)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		s, err := submitOnce(cfg, d, doc, runs, nil, r)
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		runTimes = append(runTimes, s.runTimes...)
		last = s
		return err
	})
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()
	want, _, err := servedReference(cfg, c, runs, nil, r)
	if err != nil {
		return nil, err
	}
	checkReport(last.report, want, r)
	r.checkGolden(cfg)

	cpu := median(cpus)
	r.note("submissions: %d of %d runs at scale_to=%d; CPU s per submission %v; wall s per submission %v",
		len(cpus), len(runs), cfg.size.servedScaleTo, cpus, walls)
	r.note("host seconds per served run: %v", newDist(runTimes))
	r.note("setup CPU s: %v", newDist(setups))
	m := r.metrics
	m["cpu_s"] = cpu
	m["setup_s"] = median(setups)
	m["sim_cycles_per_cpu_s"] = totalCycles(runs) / cpu
	m["peak_rss_mb"] = peak
	r.note("sim_ipc %v", meanOf(last.ipc))
	return r, nil
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// traceServed submits once untraced and once traced (spans around
// Submit, Events and Report, CPU profile over the whole submission);
// counts come from the local reference's run results.
func traceServed(cfg settings, c *campaign.Campaign, d *daemon, doc []byte, runs []campaign.Run, r *result) (*result, error) {
	rcs := campaign.RunConfigs(runs, nil)
	setups, err := setupTimes(rcs)
	if err != nil {
		return nil, err
	}
	plain, err := submitOnce(cfg, d, doc, runs, nil, r)
	if err != nil {
		return nil, err
	}
	before, err := d.storeBytes()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var traced submission
	shares, mem, err := profiled(func() error {
		var err error
		traced, err = submitOnce(cfg, d, doc, runs, tr, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	after, err := d.storeBytes()
	if err != nil {
		return nil, err
	}
	var validations atomic.Uint64
	want, refRes, err := servedReference(cfg, c, runs, &validations, r)
	if err != nil {
		return nil, err
	}
	checkReport(traced.report, want, r)
	r.checkGolden(cfg)
	if err := tr.write(spanFile(cfg)); err != nil {
		return nil, err
	}
	events, err := snoopEvents(rcs)
	if err != nil {
		return nil, err
	}

	m := r.metrics
	m["sim_ipc"] = meanOf(traced.ipc)
	campaignCounts(m, refRes, validations.Load())
	m["snoop.events"] = float64(events)
	sd := newDist(setups)
	m["runner.setup_ms_p50"] = sd.p50()
	m["runner.setup_ms_p90"], _ = sd.at(90)
	if len(traced.runTimes) == len(rcs) {
		dir, snoop := runSplit(rcs, traced.runTimes)
		m["snoop.run_s_p50"] = snoop.p50()
		m["runner.directory_run_s_p50"] = dir.p50()
		shards := campaign.Shards(cfg.workers, len(runs))
		m["runner.worker_busy_frac"] = meanOf(traced.runTimes) * float64(len(runs)) /
			(float64(shards) * traced.done.Seconds())
	}
	gaps := newDist(traced.gaps)
	m["serve.submit_ms"] = tr.totalMS("serve.Submit")
	m["serve.first_event_ms"] = ms(traced.first)
	m["serve.event_gap_ms_p50"] = gaps.p50() * 1000
	g90, _ := gaps.at(90)
	m["serve.event_gap_ms_p90"] = g90 * 1000
	m["serve.done_to_report_ms"] = ms(traced.wall - traced.done)
	m["serve.store_bytes"] = float64(after - before)
	setLayerShares(m, shares, mem, totalCycles(runs))
	m["trace.overhead_pct"] = overheadPct(traced.wall.Seconds(), plain.wall.Seconds())
	r.note("runner.setup_ms: %v", sd)
	r.note("event gaps s: %v", gaps)
	r.note("untraced wall s %.6g, traced wall s %.6g", plain.wall.Seconds(), traced.wall.Seconds())
	return r, nil
}
