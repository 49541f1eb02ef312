package runner

import (
	"context"
	"testing"
)

// TestRunGroupsCtxCompletesAllWithoutPruning: with a callback that never
// prunes, RunGroupsCtx is RunAllStreamCtx — every run completes, results
// are input-ordered, no group reports canceled.
func TestRunGroupsCtxCompletesAllWithoutPruning(t *testing.T) {
	rcs := testRuns(4)
	group := []int{0, 0, 1, 1}
	var fired int
	res, canceled, err := RunGroupsCtx(context.Background(), rcs, group, 2,
		func(i int, r RunResult) bool { fired++; return false })
	if err != nil {
		t.Fatal(err)
	}
	if fired != len(rcs) {
		t.Fatalf("callback fired %d times, want %d", fired, len(rcs))
	}
	for g, c := range canceled {
		if c {
			t.Fatalf("group %d reported canceled", g)
		}
	}
	serial := RunAll(rcs, 1)
	for i := range serial {
		if res[i].Instrs != serial[i].Instrs || res[i].IPC != serial[i].IPC {
			t.Fatalf("run %d diverged from serial execution", i)
		}
	}
}

// TestRunGroupsCtxPrunesQueuedRuns: pruning a group on its first
// completion skips the group's queued runs — they hold the zero result
// and fire no callback — while other groups run to completion.
func TestRunGroupsCtxPrunesQueuedRuns(t *testing.T) {
	rcs := testRuns(6)
	group := []int{0, 0, 0, 1, 1, 1}
	completions := map[int]bool{}
	// Serial pool (workers=1) makes dispatch order deterministic: run 0
	// completes first, pruning group 0 before runs 1 and 2 dispatch.
	res, canceled, err := RunGroupsCtx(context.Background(), rcs, group, 1,
		func(i int, r RunResult) bool {
			completions[i] = true
			return group[i] == 0
		})
	if err != nil {
		t.Fatal(err)
	}
	if !canceled[0] || canceled[1] {
		t.Fatalf("canceled = %v, want group 0 only", canceled)
	}
	if !completions[0] || completions[1] || completions[2] {
		t.Fatalf("completions = %v: group 0 must stop after run 0", completions)
	}
	for i := 1; i <= 2; i++ {
		if res[i].Instrs != 0 || res[i].Crashed {
			t.Fatalf("pruned run %d holds a non-zero result: %+v", i, res[i])
		}
	}
	for i := 3; i <= 5; i++ {
		if !completions[i] || res[i].Instrs == 0 {
			t.Fatalf("surviving group's run %d did not complete", i)
		}
	}
}

// TestRunGroupsCtxOuterCancel: canceling the outer context stops
// dispatch and returns its error with partial results.
func TestRunGroupsCtxOuterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rcs := testRuns(3)
	_, _, err := RunGroupsCtx(ctx, rcs, []int{0, 1, 2}, 2, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunGroupsCtxValidation: mismatched group tags and negative groups
// are rejected up front.
func TestRunGroupsCtxValidation(t *testing.T) {
	rcs := testRuns(2)
	if _, _, err := RunGroupsCtx(context.Background(), rcs, []int{0}, 1, nil); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, _, err := RunGroupsCtx(context.Background(), rcs, []int{0, -1}, 1, nil); err == nil {
		t.Fatal("negative group must error")
	}
}
