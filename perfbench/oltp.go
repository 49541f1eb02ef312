package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"safetynet/internal/backend"
	"safetynet/internal/config"
	"safetynet/internal/core"
	"safetynet/internal/machine"
	"safetynet/internal/runner"
	"safetynet/internal/sim"
	"safetynet/internal/workload"
)

// quiesceBudget bounds the post-run drain before the coherence check.
const quiesceBudget = 1_000_000

// oltpCounts is oltp-long's canonical result: every exact counter the
// benchmark reads from the layers' public accessors at the horizon.
type oltpCounts struct {
	Cycles           uint64   `json:"cycles"`
	Events           uint64   `json:"events"`
	Loads            uint64   `json:"loads"`
	Stores           uint64   `json:"stores"`
	L1Hits           uint64   `json:"l1_hits"`
	Misses           uint64   `json:"misses"`
	Requests         uint64   `json:"requests"`
	Retries          uint64   `json:"retries"`
	Timeouts         uint64   `json:"timeouts"`
	Nacks            uint64   `json:"nacks"`
	DirForwards      uint64   `json:"dir_forwards"`
	NetSent          uint64   `json:"net_sent"`
	NetHops          uint64   `json:"net_hops"`
	NetBytes         uint64   `json:"net_bytes"`
	NetDropped       uint64   `json:"net_dropped"`
	Instrs           uint64   `json:"instrs"`
	MemRefs          uint64   `json:"mem_refs"`
	CkptStallCycles  uint64   `json:"ckpt_stall_cycles"`
	Backpressure     uint64   `json:"backpressure_stalls"`
	CLBAppends       uint64   `json:"clb_appends"`
	CLBFullRejects   uint64   `json:"clb_full_rejections"`
	CLBPeakBytes     int      `json:"clb_peak_bytes"`
	CLBStallCycles   uint64   `json:"clb_stall_cycles"`
	Validations      uint64   `json:"validations"`
	Recoveries       int      `json:"recoveries"`
	RecoveryCycles   []uint64 `json:"recovery_cycles"`
	InstrsRolledBack uint64   `json:"instrs_rolled_back"`
	IPC              float64  `json:"ipc"`
}

// readOltp collects the counters of a directory machine at its horizon.
func readOltp(be backend.Backend, horizon sim.Time) (oltpCounts, error) {
	m, ok := be.(*machine.Machine)
	if !ok {
		return oltpCounts{}, fmt.Errorf("oltp-long: backend is %T, want the directory machine", be)
	}
	c := oltpCounts{Cycles: uint64(horizon), Events: m.Eng.Executed(), Instrs: m.TotalInstrs()}
	for _, n := range m.Nodes {
		cs, ds, ps := n.CC.Stats(), n.Dir.Stats(), n.Proc.Stats()
		c.Loads += cs.Loads
		c.Stores += cs.Stores
		c.L1Hits += cs.L1Hits
		c.Misses += cs.Misses
		c.Requests += cs.RequestsIssued
		c.Retries += cs.Retries
		c.Timeouts += cs.Timeouts
		c.Nacks += ds.Nacks
		c.DirForwards += ds.Forwards
		c.CLBStallCycles += cs.CLBStallCycles + ds.CLBStallCycles
		c.MemRefs += ps.MemRefs
		c.CkptStallCycles += ps.CkptStallCycles
		c.Backpressure += ps.BackpressureStalls
		for _, clb := range [...]*core.CLB{n.CC.CLB(), n.Dir.CLB()} {
			if clb == nil {
				continue
			}
			c.CLBAppends += clb.Appends()
			c.CLBFullRejects += clb.FullRejections()
			c.CLBPeakBytes = max(c.CLBPeakBytes, clb.PeakBytes())
		}
	}
	ns := m.Net.Stats()
	c.NetSent, c.NetHops, c.NetBytes = ns.Sent, ns.HopsTotal, ns.BytesSent
	for _, d := range ns.Dropped {
		c.NetDropped += d
	}
	if svc := m.ActiveService(); svc != nil {
		c.Validations = svc.Validations()
		for _, r := range svc.Recoveries() {
			c.RecoveryCycles = append(c.RecoveryCycles, uint64(r.Duration()))
		}
		c.Recoveries = len(c.RecoveryCycles)
	}
	bc := m.Counters()
	c.InstrsRolledBack = bc.InstrsRolledBack
	c.IPC = float64(bc.Instrs) / float64(horizon)
	return c, nil
}

// oltpRun is one measured oltp-long run. setup is CPU time; wall and
// cpu cover the strides, each of which is timed both ways.
type oltpRun struct {
	setup, wall, cpu time.Duration
	strides          []float64 // host seconds per Backend.Run stride
	strideCPU        []float64 // CPU seconds per stride
	counts           oltpCounts
}

// oltpOnce builds and starts the backend, drives it to the horizon in
// equal Backend.Run strides, reads its counters, then (outside the
// timed window) drains it and checks coherence.
func oltpOnce(cfg settings, p config.Params, prof workload.Profile, tr *tracer, r *result) (oltpRun, error) {
	var o oltpRun
	be, setup, err := oltpSetup(p, prof)
	if err != nil {
		return o, err
	}
	o.setup = setup

	h, k := cfg.size.oltpCycles, sim.Time(cfg.size.oltpStrides)
	root := tr.begin("oltp.run", 0)
	t1, c1 := time.Now(), cpuNow()
	last, lastCPU := t1, c1
	for i := sim.Time(1); i <= k; i++ {
		target := h * i / k
		id := tr.begin("Backend.Run", root, "stride", fmt.Sprint(i))
		reached := be.Run(target)
		tr.end(id)
		now, nowCPU := time.Now(), cpuNow()
		o.strides = append(o.strides, now.Sub(last).Seconds())
		o.strideCPU = append(o.strideCPU, (nowCPU - lastCPU).Seconds())
		last, lastCPU = now, nowCPU
		if reached < target {
			_, cause := be.CrashInfo()
			return o, fmt.Errorf("oltp-long stopped at cycle %d of %d: %s", reached, target, cause)
		}
	}
	o.wall, o.cpu = time.Since(t1), cpuNow()-c1
	tr.end(root)

	if o.counts, err = readOltp(be, h); err != nil {
		return o, err
	}
	canon, err := json.Marshal(o.counts)
	if err != nil {
		return o, err
	}
	r.attempted++
	bad := len(r.problems)
	r.checkDigest(canon)
	if !be.Quiesce(quiesceBudget) {
		r.problem("oltp-long: machine did not drain within %d cycles", quiesceBudget)
	}
	if v := be.CheckCoherence(); len(v) > 0 {
		r.problem("oltp-long: %d coherence violations, first: %s", len(v), v[0])
	}
	if len(r.problems) > bad {
		r.failed++
	}
	return o, nil
}

// oltpSetup times building and starting one backend in CPU time. It
// collects the previous sample's garbage first, so every sample starts
// from the same heap and the discarded machines do not pile up into
// peak RSS.
func oltpSetup(p config.Params, prof workload.Profile) (backend.Backend, time.Duration, error) {
	runtime.GC()
	c0 := cpuNow()
	be, err := runner.NewBackend(p, prof)
	if err != nil {
		return nil, 0, err
	}
	be.Start()
	return be, cpuNow() - c0, nil
}

// runOltp is the oltp-long workload: one fault-free oltp run on the
// default Table-2 directory machine, repeated for the measuring time.
func runOltp(cfg settings) (*result, error) {
	r := newResult()
	prof, err := workload.ByName("oltp")
	if err != nil {
		return nil, err
	}
	p := config.Default()
	p.Seed = cfg.seed
	if cfg.trace {
		return traceOltp(cfg, p, prof, r)
	}

	var setups, walls, cpus, strides []float64
	var strideCPU [][]float64
	var last oltpRun
	err = measureLoop(cfg.seconds, func() error {
		for i := 0; i < cfg.size.probes[cfg.workload]; i++ {
			_, d, err := oltpSetup(p, prof)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		o, err := oltpOnce(cfg, p, prof, nil, r)
		if err != nil {
			return err
		}
		setups = append(setups, o.setup.Seconds())
		walls = append(walls, o.wall.Seconds())
		cpus = append(cpus, o.cpu.Seconds())
		strides = append(strides, o.strides...)
		strideCPU = append(strideCPU, o.strideCPU)
		last = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()
	r.checkGolden(cfg)

	cpu := stridewiseMedian(strideCPU)
	r.note("runs: %d of %d cycles; CPU s per run %v; wall s per run %v", len(cpus), cfg.size.oltpCycles, cpus, walls)
	r.note("Backend.Run stride host seconds: %v", newDist(strides))
	r.note("setup CPU s: %v", newDist(setups))
	m := r.metrics
	m["cpu_s"] = cpu
	m["setup_s"] = median(setups)
	m["sim_cycles_per_cpu_s"] = float64(cfg.size.oltpCycles) / cpu
	m["peak_rss_mb"] = peak
	r.note("sim_ipc %v", last.counts.IPC)
	return r, nil
}

// traceOltp runs oltp-long once untraced and once traced, and reports
// the per-layer counters of the traced run's backend.
func traceOltp(cfg settings, p config.Params, prof workload.Profile, r *result) (*result, error) {
	plain, err := oltpOnce(cfg, p, prof, nil, r)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < cfg.size.layerSetups; i++ {
		_, d, err := oltpSetup(p, prof)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ms(d))
	}
	tr := newTracer()
	var traced oltpRun
	shares, mem, err := profiled(func() error {
		var err error
		traced, err = oltpOnce(cfg, p, prof, tr, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.checkGolden(cfg)
	if err := tr.write(spanFile(cfg)); err != nil {
		return nil, err
	}

	c, m := traced.counts, r.metrics
	wall := traced.wall.Seconds()
	m["sim_ipc"] = c.IPC
	m["sim.events"] = float64(c.Events)
	m["sim.events_per_cycle"] = float64(c.Events) / float64(c.Cycles)
	m["sim.events_per_s"] = float64(c.Events) / wall
	m["protocol.loads"] = float64(c.Loads)
	m["protocol.stores"] = float64(c.Stores)
	m["protocol.misses"] = float64(c.Misses)
	if refs := c.Loads + c.Stores; refs > 0 {
		m["protocol.l1_hit_ratio"] = float64(c.L1Hits) / float64(refs)
	}
	m["protocol.requests"] = float64(c.Requests)
	m["protocol.retries"] = float64(c.Retries)
	m["protocol.nacks"] = float64(c.Nacks)
	m["protocol.timeouts"] = float64(c.Timeouts)
	m["protocol.dir_forwards"] = float64(c.DirForwards)
	m["network.sent"] = float64(c.NetSent)
	m["network.hops"] = float64(c.NetHops)
	m["network.bytes"] = float64(c.NetBytes)
	m["network.dropped"] = float64(c.NetDropped)
	m["proc.instrs"] = float64(c.Instrs)
	m["proc.mem_refs"] = float64(c.MemRefs)
	m["proc.ckpt_stall_cycles"] = float64(c.CkptStallCycles)
	m["proc.backpressure_stalls"] = float64(c.Backpressure)
	m["core.clb_appends"] = float64(c.CLBAppends)
	m["core.clb_full_rejections"] = float64(c.CLBFullRejects)
	m["core.clb_peak_bytes"] = float64(c.CLBPeakBytes)
	m["core.clb_stall_cycles"] = float64(c.CLBStallCycles)
	m["core.validations"] = float64(c.Validations)
	m["core.recoveries"] = float64(c.Recoveries)
	m["core.recovery_cycles_p50"] = recoveryP50(c.RecoveryCycles)
	m["core.instrs_rolled_back"] = float64(c.InstrsRolledBack)

	sd := newDist(setups)
	m["runner.setup_ms_p50"] = sd.p50()
	m["runner.setup_ms_p90"], _ = sd.at(90)
	m["runner.directory_run_s_p50"] = plain.wall.Seconds()
	var busy time.Duration
	for _, s := range tr.named("Backend.Run") {
		busy += s.dur()
	}
	m["runner.worker_busy_frac"] = busy.Seconds() / wall
	setLayerShares(m, shares, mem, float64(c.Cycles))
	m["trace.overhead_pct"] = overheadPct(wall, plain.wall.Seconds())
	r.note("runner.setup_ms: %v", sd)
	r.note("untraced wall s %.6g, traced wall s %.6g", plain.wall.Seconds(), wall)
	return r, nil
}

func recoveryP50(cycles []uint64) float64 {
	v := make([]float64, len(cycles))
	for i, c := range cycles {
		v[i] = float64(c)
	}
	return newDist(v).p50()
}

func overheadPct(traced, plain float64) float64 {
	return (traced - plain) / plain * 100
}

func spanFile(cfg settings) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.json", cfg.out, cfg.workload, cfg.seed)
}
