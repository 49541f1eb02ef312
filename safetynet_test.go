package safetynet

import (
	"errors"
	"strings"
	"testing"
)

func TestNewValidatesInputs(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := New(cfg, "no-such-workload"); err == nil {
		t.Fatal("unknown workload must error")
	}
	cfg.NumNodes = 0
	if _, err := New(cfg, "oltp"); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestWorkloadsListed(t *testing.T) {
	names := Workloads()
	if len(names) < 6 {
		t.Fatalf("Workloads() = %v", names)
	}
	if got := PaperWorkloads(); len(got) != 5 {
		t.Fatalf("PaperWorkloads() = %v", got)
	}
	for _, wl := range PaperWorkloads() {
		if _, err := New(DefaultConfig(), wl); err != nil {
			t.Fatalf("preset %s: %v", wl, err)
		}
	}
}

func TestProtectedRunSummary(t *testing.T) {
	sys, err := New(DefaultConfig(), "barnes")
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	end := sys.Run(500_000)
	if end != 500_000 || sys.Now() != 500_000 {
		t.Fatalf("Run returned %d, Now %d", end, sys.Now())
	}
	r := sys.Result()
	if r.Crashed || r.Instrs == 0 || !r.Protected {
		t.Fatalf("result = %+v", r)
	}
	if r.RecoveryPoint < 2 {
		t.Fatalf("recovery point %d did not advance", r.RecoveryPoint)
	}
	s := sys.Summary()
	for _, want := range []string{"barnes", "SafetyNet", "recovery point"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestRunForAdvances(t *testing.T) {
	sys, err := New(DefaultConfig(), "barnes")
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.Run(100_000)
	if got := sys.RunFor(50_000); got != 150_000 {
		t.Fatalf("RunFor = %d, want 150000", got)
	}
}

func TestFaultInjectionThroughFacade(t *testing.T) {
	up, err := New(UnprotectedConfig(), "barnes")
	if err != nil {
		t.Fatal(err)
	}
	if err := up.Inject(DropOnce(200_000)); err != nil {
		t.Fatal(err)
	}
	up.Start()
	up.Run(2_000_000)
	if !up.Result().Crashed {
		t.Fatal("unprotected + dropped message must crash")
	}

	sn, err := New(DefaultConfig(), "barnes")
	if err != nil {
		t.Fatal(err)
	}
	if err := sn.Inject(DropOnce(200_000)); err != nil {
		t.Fatal(err)
	}
	sn.Start()
	sn.Run(2_000_000)
	r := sn.Result()
	if r.Crashed {
		t.Fatal("protected system crashed")
	}
	if r.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", r.Recoveries)
	}
	if r.InstrsRolledBack == 0 {
		t.Fatal("recovery must roll back some work")
	}
}

func TestKillSwitchThroughFacade(t *testing.T) {
	sys, err := New(DefaultConfig(), "stress")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(KillEWSwitch(5, 100_000)); err != nil {
		t.Fatal(err)
	}
	// The backend is sealed: the armed fault's firing is observed through
	// the backend-neutral hooks, not white-box topology access.
	var fired []string
	sys.Observe(&RunObserver{
		FaultFired: func(cycle uint64, kind string) { fired = append(fired, kind) },
	})
	sys.Start()
	sys.Run(1_500_000)
	if sys.Result().Crashed {
		t.Fatal("protected system must survive the hard fault")
	}
	if len(fired) != 1 || fired[0] != "kill-switch" {
		t.Fatalf("fired = %v, want one kill-switch", fired)
	}
}

// TestSnoopBackendThroughFacade is the facade-level protocol-promotion
// test: a snoop-backed System accepts a composable fault plan, observes
// a recovery (not a crash), and passes the coherence check.
func TestSnoopBackendThroughFacade(t *testing.T) {
	sys, err := New(SnoopConfig(), "stress")
	if err != nil {
		t.Fatal(err)
	}
	if sys.Protocol() != ProtocolSnoop {
		t.Fatalf("Protocol() = %q, want snoop backend", sys.Protocol())
	}
	if err := sys.Inject(DropOnce(200_000), DuplicateOnce(500_000)); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.Run(1_200_000)
	r := sys.Result()
	if r.Crashed {
		t.Fatalf("snoop system crashed: %s", r.CrashCause)
	}
	if r.Protocol != ProtocolSnoop || !r.Protected {
		t.Fatalf("result = %+v", r)
	}
	if r.Recoveries == 0 || r.InstrsRolledBack == 0 {
		t.Fatalf("dropped data response did not recover: %+v", r)
	}
	if r.MessagesDropped != 1 {
		t.Fatalf("MessagesDropped = %d, want 1", r.MessagesDropped)
	}
	if r.RecoveryPoint < 2 || r.StoresLogged == 0 {
		t.Fatalf("SafetyNet machinery idle: %+v", r)
	}
	s := sys.Summary()
	for _, want := range []string{"snoop", "SafetyNet", "recovery point"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	if !sys.Quiesce(400_000) {
		t.Fatal("failed to quiesce")
	}
	if errs := sys.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("violations: %v", errs)
	}
}

// TestUnsupportedFaultRejectedThroughFacade: events the bus backend
// cannot express fail Inject with the typed sentinel.
func TestUnsupportedFaultRejectedThroughFacade(t *testing.T) {
	sys, err := New(SnoopConfig(), "stress")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(KillEWSwitch(5, 100_000)); !errors.Is(err, ErrFaultUnsupported) {
		t.Fatalf("err = %v, want ErrFaultUnsupported", err)
	}
	if err := sys.Inject(MisrouteOnce(100_000)); !errors.Is(err, ErrFaultUnsupported) {
		t.Fatalf("err = %v, want ErrFaultUnsupported", err)
	}
}

// TestSnoopConfigResizesWithoutTorus: the bus backend has no torus, so
// resizing a snooping system needs only NumNodes.
func TestSnoopConfigResizesWithoutTorus(t *testing.T) {
	cfg := SnoopConfig()
	cfg.NumNodes = 8 // no longer matches the default 4x4 torus
	sys, err := New(cfg, "stress")
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.Run(150_000)
	if s := sys.Summary(); !strings.Contains(s, "8-node") {
		t.Fatalf("summary not sized to 8 nodes:\n%s", s)
	}
	if sys.Result().Instrs == 0 {
		t.Fatal("no progress")
	}
}

func TestProtocolValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = "token-coherence"
	if _, err := New(cfg, "oltp"); err == nil {
		t.Fatal("unknown protocol must error")
	}
	cfg = SnoopConfig()
	cfg.SafetyNetEnabled = false
	if _, err := New(cfg, "oltp"); err == nil {
		t.Fatal("unprotected snoop config must error")
	}
	if got := Protocols(); len(got) != 2 {
		t.Fatalf("Protocols() = %v", got)
	}
}

// TestDirectoryBackendUnchanged: the default protocol still selects the
// directory machine.
func TestDirectoryBackendUnchanged(t *testing.T) {
	sys, err := New(DefaultConfig(), "barnes")
	if err != nil {
		t.Fatal(err)
	}
	if sys.Protocol() != ProtocolDirectory {
		t.Fatalf("Protocol() = %q, want directory backend", sys.Protocol())
	}
	if got := sys.Result().Protocol; got != ProtocolDirectory {
		t.Fatalf("Protocol = %q", got)
	}
}

// TestTable2Renders drives the parameter table through RunExperiment,
// the one way to run a catalog experiment.
func TestTable2Renders(t *testing.T) {
	rep, err := RunExperiment("table2", DefaultConfig(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	for _, want := range []string{"128 KB", "4 MB", "512 kbytes", "2D torus", "100000 cycles"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, out)
		}
	}
}
