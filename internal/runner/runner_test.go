package runner

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"safetynet/internal/backend"
	"safetynet/internal/config"
	"safetynet/internal/fault"
)

// TestWorkersSanitization: the one shared sanitization path — zero and
// negative worker counts mean one worker per available CPU, positive
// counts are literal.
func TestWorkersSanitization(t *testing.T) {
	gomaxprocs := runtime.GOMAXPROCS(0)
	cases := map[int]int{
		0:   gomaxprocs,
		-1:  gomaxprocs,
		-99: gomaxprocs,
		1:   1,
		7:   7,
		128: 128,
	}
	for in, want := range cases {
		if got := Workers(in); got != want {
			t.Errorf("Workers(%d) = %d, want %d", in, got, want)
		}
	}
}

func testRuns(n int) []RunConfig {
	rcs := make([]RunConfig, n)
	for i := range rcs {
		p := config.Default()
		p.Seed = uint64(1 + i)
		rcs[i] = RunConfig{Params: p, Workload: "barnes", Warmup: 40_000, Measure: 120_000}
	}
	return rcs
}

// TestRunAllDeterministicAcrossWorkerCounts: results arrive in input
// order and are bit-identical at any parallelism, including the
// sanitized "0 means all CPUs" path.
func TestRunAllDeterministicAcrossWorkerCounts(t *testing.T) {
	rcs := testRuns(4)
	serial := RunAll(rcs, 1)
	for _, workers := range []int{0, 2, 8} {
		if got := RunAll(rcs, workers); !reflect.DeepEqual(serial, got) {
			t.Fatalf("RunAll(workers=%d) diverged from serial", workers)
		}
	}
}

// TestRunAllStreamCompletion: the completion callback fires exactly once
// per run with that run's finished result, and the returned slice is
// still input-ordered.
func TestRunAllStreamCompletion(t *testing.T) {
	rcs := testRuns(5)
	seen := map[int]RunResult{}
	res, err := RunAllStreamCtx(context.Background(), rcs, 3, func(i int, r RunResult) {
		if _, dup := seen[i]; dup {
			t.Errorf("run %d completed twice", i)
		}
		seen[i] = r
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(rcs) {
		t.Fatalf("callback fired %d times, want %d", len(seen), len(rcs))
	}
	for i, r := range res {
		if !reflect.DeepEqual(seen[i], r) {
			t.Errorf("run %d: streamed result differs from returned slice", i)
		}
		if r.Crashed || r.Instrs == 0 {
			t.Errorf("run %d made no progress: %+v", i, r)
		}
	}
}

// TestRunObserverHooks: an observer attached to the run config sees the
// armed fault fire and the recovery complete.
func TestRunObserverHooks(t *testing.T) {
	var faults, recoveries int
	rc := RunConfig{
		Params: config.Default(), Workload: "barnes",
		Warmup: 50_000, Measure: 500_000,
		Fault: fault.Plan{fault.DropOnce{At: 200_000}},
		Observer: &backend.Observer{
			FaultFired:        func(uint64, string) { faults++ },
			RecoveryCompleted: func(uint64, uint32, uint64) { recoveries++ },
		},
	}
	res := Run(rc)
	if res.Crashed {
		t.Fatalf("run crashed: %s", res.CrashCause)
	}
	if faults == 0 {
		t.Fatal("observer saw no fault firing")
	}
	if recoveries == 0 {
		t.Fatal("observer saw no recovery")
	}
}

// TestRunCtxCanceledMidRun: a context canceled while a run is in
// flight abandons it at the next stride check instead of simulating to
// the horizon, and a pre-canceled context never starts the engine.
func TestRunCtxCanceledMidRun(t *testing.T) {
	rc := testRuns(1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, rc); err != context.Canceled {
		t.Fatalf("pre-canceled RunCtx err = %v, want context.Canceled", err)
	}
	// A background context reproduces Run exactly (the strided stepping
	// must be invisible in the results).
	want := Run(rc)
	got, err := RunCtx(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("RunCtx(Background) diverged from Run")
	}
}

// TestRunAllStreamCtxCancellation: canceling the pool context stops
// dispatch, abandons in-flight runs, fires no callback for them, and
// surfaces context.Canceled — on both the serial and the sharded path.
func TestRunAllStreamCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 3} {
		rcs := testRuns(6)
		ctx, cancel := context.WithCancel(context.Background())
		fired := 0
		_, err := RunAllStreamCtx(ctx, rcs, workers, func(i int, r RunResult) {
			fired++
			if fired == 1 {
				cancel() // cancel as soon as the first run completes
			}
			if r.Crashed {
				t.Errorf("workers=%d: completed run %d reported a crash: %s", workers, i, r.CrashCause)
			}
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if fired == 0 || fired == len(rcs) {
			t.Fatalf("workers=%d: %d callbacks fired; cancellation should stop the pool partway", workers, fired)
		}
	}
}
