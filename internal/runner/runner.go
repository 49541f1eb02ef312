// Package runner is the execution substrate shared by every sweep in
// the repository: it builds one simulated backend per run description,
// measures the run's window deltas, and fans independent runs across a
// worker pool without changing any result. The experiment catalog
// (internal/harness), the campaign engine (internal/campaign) and the
// exploration engine (internal/explore) all sit on top of it, so
// parallelism semantics — worker-count sanitization, deterministic
// result order, streaming completion, cancellation — are defined
// exactly once, in the one worker loop of RunGroupsCtx.
package runner

import (
	"context"
	"fmt"
	"runtime"

	"safetynet/internal/backend"
	"safetynet/internal/cache"
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/machine"
	"safetynet/internal/sim"
	"safetynet/internal/snoop"
	"safetynet/internal/workload"
)

// RunConfig is one simulation run.
type RunConfig struct {
	Params   config.Params
	Workload string
	// Warmup cycles run before the measurement window opens.
	Warmup sim.Time
	// Measure is the measurement-window length.
	Measure sim.Time
	// Fault is the ordered fault plan armed before the run starts; the
	// zero value is fault-free.
	Fault fault.Plan
	// Observer, when non-nil, is registered on the backend before the
	// run starts, so sweeps can narrate checkpoints, recoveries, and
	// fault firings (the PR-4 RunObserver hooks) without white-box
	// access. Callbacks run synchronously inside the run's own engine.
	Observer *backend.Observer
}

// RunResult carries everything the sweeps report.
type RunResult struct {
	Crashed    bool
	CrashCause string

	// Measurement-window deltas.
	Cycles uint64
	Instrs uint64
	IPC    float64 // aggregate instructions per cycle (all processors)

	StoresTotal     uint64
	StoresLogged    uint64
	CoherenceReqs   uint64
	TransfersLogged uint64
	DirLogged       uint64
	Bandwidth       cache.Bandwidth
	CLBStallCycles  uint64

	Recoveries       int
	RecoveryCycles   []sim.Time
	InstrsRolledBack uint64

	CLBPeakBytes int
	NetSent      uint64
	NetDropped   uint64
}

// Both target systems satisfy the protocol-neutral backend contract.
var (
	_ backend.Backend = (*machine.Machine)(nil)
	_ backend.Backend = (*snoop.System)(nil)
)

// NewBackend builds the simulated system the parameters select: the MOSI
// directory machine on its 2D torus, or the broadcast snooping system on
// its ordered bus (with the snoop configuration derived from the shared
// parameters; see snoop.FromParams). Every experiment, fault plan, and
// CLI flag works on the returned backend alike.
func NewBackend(p config.Params, prof workload.Profile) (backend.Backend, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch p.ProtocolName() {
	case config.ProtocolDirectory:
		return machine.New(p, prof), nil
	case config.ProtocolSnoop:
		c := snoop.FromParams(p)
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("derived snoop configuration: %w", err)
		}
		return snoop.New(c, prof), nil
	}
	// Unreachable: Validate rejects unknown protocols.
	return nil, fmt.Errorf("unknown protocol %q", p.Protocol)
}

// counters is the directory machine's detailed measurement snapshot; the
// protocol-neutral counters shared with the snoop backend come from
// backend.Counters instead.
type counters struct {
	cs map[string]uint64
	bw cache.Bandwidth
}

func snapshot(m *machine.Machine) counters {
	c := counters{cs: map[string]uint64{}}
	for _, n := range m.Nodes {
		s := n.CC.Stats()
		c.cs["stores"] += s.Stores
		c.cs["reqs"] += s.RequestsIssued
		c.cs["clbStall"] += s.CLBStallCycles
		c.cs["dirLog"] += n.Dir.Stats().EntriesLogged
		bw := n.CC.Bandwidth()
		c.bw.HitCycles += bw.HitCycles
		c.bw.FillCycles += bw.FillCycles
		c.bw.CoherenceCycles += bw.CoherenceCycles
		c.bw.LoggingCycles += bw.LoggingCycles
	}
	return c
}

// cancelStride is how far RunCtx advances the engine between context
// checks. It bounds cancellation latency to one stride of simulated
// work while keeping the check overhead invisible next to the cycles
// simulated per stride; results are stride-invariant because advancing
// a discrete-event engine to an absolute time in steps is identical to
// advancing it in one call.
const cancelStride = 1 << 16

// runUntil advances the backend to the given absolute cycle in
// cancelStride steps, checking the context between steps. It returns
// the context's error when canceled mid-run; a backend that stops
// early on its own (a crashed unprotected system) ends the loop
// without error and the caller inspects CrashInfo.
func runUntil(ctx context.Context, be backend.Backend, until sim.Time) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		now := be.Now()
		if now >= until {
			return nil
		}
		next := now + cancelStride
		if next > until {
			next = until
		}
		if reached := be.Run(next); reached < next {
			return nil // stopped early (crash); caller inspects CrashInfo
		}
	}
}

// Run executes one simulation on the backend the parameters select and
// returns its measured results. It is RunCtx with a background context.
func Run(rc RunConfig) RunResult {
	r, _ := RunCtx(context.Background(), rc)
	return r
}

// RunCtx executes one simulation like Run, checking the context every
// cancelStride simulated cycles so a canceled context abandons the run
// mid-flight. On cancellation it returns the context's error and a
// meaningless result; otherwise the error is nil. The protocol-neutral
// counters (IPC, logging, recoveries, traffic) are measured on every
// backend; the directory machine additionally reports its detailed
// bandwidth, directory-log, and CLB-occupancy breakdowns.
func RunCtx(ctx context.Context, rc RunConfig) (RunResult, error) {
	prof, err := workload.ByName(rc.Workload)
	if err != nil {
		// Crashed result, not a panic: see the fault-plan comment below.
		return RunResult{Crashed: true, CrashCause: "invalid configuration: " + err.Error()}, nil
	}
	be, err := NewBackend(rc.Params, prof)
	if err != nil {
		return RunResult{Crashed: true, CrashCause: "invalid configuration: " + err.Error()}, nil
	}
	if err := rc.Fault.Arm(be.FaultTarget()); err != nil {
		// Surface an invalid plan as a crashed run rather than panicking:
		// small-but-legal sizings can produce degenerate plans, and a
		// panic inside a parallel worker would kill the whole process.
		return RunResult{Crashed: true, CrashCause: "invalid fault plan: " + err.Error()}, nil
	}
	if rc.Observer != nil {
		be.Observe(rc.Observer)
	}
	m, _ := be.(*machine.Machine) // nil for the snoop backend

	be.Start()
	if err := runUntil(ctx, be, rc.Warmup); err != nil {
		return RunResult{}, err
	}
	if crashed, cause := be.CrashInfo(); crashed {
		return RunResult{Crashed: true, CrashCause: cause}, nil
	}
	cBefore := be.Counters()
	var before counters
	if m != nil {
		before = snapshot(m)
	}
	if err := runUntil(ctx, be, rc.Warmup+rc.Measure); err != nil {
		return RunResult{}, err
	}
	res := RunResult{}
	if crashed, cause := be.CrashInfo(); crashed {
		res.Crashed = true
		res.CrashCause = cause
		return res, nil
	}
	cAfter := be.Counters()

	// Durable progress can regress across the window-start snapshot: a
	// recovery inside the window may roll back instructions that were
	// already counted at the snapshot, leaving the cumulative durable
	// count below it. Clamp instead of wrapping the unsigned delta — a
	// window that ends with less durable work than it started made zero
	// forward progress, not 2^64 of it.
	sub := func(after, before uint64) uint64 {
		if after < before {
			return 0
		}
		return after - before
	}
	res.Cycles = uint64(rc.Measure)
	res.Instrs = sub(cAfter.Instrs, cBefore.Instrs)
	res.IPC = float64(res.Instrs) / float64(rc.Measure)
	res.StoresLogged = sub(cAfter.StoresLogged, cBefore.StoresLogged)
	res.TransfersLogged = sub(cAfter.TransfersLogged, cBefore.TransfersLogged)
	res.InstrsRolledBack = sub(cAfter.InstrsRolledBack, cBefore.InstrsRolledBack)
	// Like every other counter, recoveries and losses are window deltas,
	// so warmup-time faults are not attributed to the measurement.
	res.Recoveries = cAfter.Recoveries - cBefore.Recoveries
	res.NetSent = sub(cAfter.MessagesSent, cBefore.MessagesSent)
	res.NetDropped = sub(cAfter.MessagesDropped, cBefore.MessagesDropped)

	if m == nil {
		return res, nil
	}
	after := snapshot(m)
	res.StoresTotal = after.cs["stores"] - before.cs["stores"]
	res.CoherenceReqs = after.cs["reqs"] - before.cs["reqs"]
	res.DirLogged = after.cs["dirLog"] - before.cs["dirLog"]
	res.CLBStallCycles = after.cs["clbStall"] - before.cs["clbStall"]
	res.Bandwidth = cache.Bandwidth{
		HitCycles:       after.bw.HitCycles - before.bw.HitCycles,
		FillCycles:      after.bw.FillCycles - before.bw.FillCycles,
		CoherenceCycles: after.bw.CoherenceCycles - before.bw.CoherenceCycles,
		LoggingCycles:   after.bw.LoggingCycles - before.bw.LoggingCycles,
	}
	if svc := m.ActiveService(); svc != nil {
		recs := svc.Recoveries()
		// Only the measurement window's recoveries (the cumulative list's
		// tail, matching the res.Recoveries delta).
		if len(recs) > res.Recoveries {
			recs = recs[len(recs)-res.Recoveries:]
		}
		for _, r := range recs {
			res.RecoveryCycles = append(res.RecoveryCycles, r.Duration())
		}
	}
	for _, n := range m.Nodes {
		if clb := n.CC.CLB(); clb != nil && clb.PeakBytes() > res.CLBPeakBytes {
			res.CLBPeakBytes = clb.PeakBytes()
		}
		if clb := n.Dir.CLB(); clb != nil && clb.PeakBytes() > res.CLBPeakBytes {
			res.CLBPeakBytes = clb.PeakBytes()
		}
	}
	return res, nil
}

// Workers is the single worker-count sanitization path every sweep
// shares: zero and negative counts mean "one worker per available CPU"
// (GOMAXPROCS), anything positive is taken literally. Options and
// campaign.Options both funnel through it, so "0 means use the machine"
// cannot drift between layers.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunAll executes every run and returns results in input order. Each
// run owns its own deterministic engine, machine, and RNG, so runs are
// independent and the result for a given run is identical whether it
// executed serially or on a worker pool. The worker count is sanitized
// through Workers.
func RunAll(rcs []RunConfig, workers int) []RunResult {
	res, _ := RunAllStreamCtx(context.Background(), rcs, workers, nil)
	return res
}

// RunAllStreamCtx is RunAll under a context and with a completion
// callback: onDone fires once per run, in completion order (not input
// order), as soon as that run's result exists. Calls are serialized, so
// the callback may write shared progress state without locking. The
// returned slice is still in input order regardless of scheduling. A
// canceled context stops dispatching queued runs and abandons in-flight
// ones at the next stride check (see RunCtx), then returns the
// context's error with the partial results (canceled runs hold the zero
// RunResult and fire no callback). It is RunGroupsCtx with every run in
// one group that is never canceled.
func RunAllStreamCtx(ctx context.Context, rcs []RunConfig, workers int, onDone func(i int, r RunResult)) ([]RunResult, error) {
	res, _, err := RunGroupsCtx(ctx, rcs, make([]int, len(rcs)), workers,
		func(i int, r RunResult) bool {
			if onDone != nil {
				onDone(i, r)
			}
			return false
		})
	return res, err
}
