package fault_test

import (
	"errors"
	"testing"

	"safetynet/internal/fault"
	"safetynet/internal/snoop"
	"safetynet/internal/topology"
	"safetynet/internal/workload"
)

// TestEveryEventArmsOrRejectsOnBothBackends is the cross-backend arming
// contract: every fault event, armed with valid parameters, must either
// install on the target or fail with a typed ErrUnsupported — never
// panic, and never fail with an untyped error.
func TestEveryEventArmsOrRejectsOnBothBackends(t *testing.T) {
	events := []struct {
		ev fault.Event
		// supportedOnSnoop marks events the bus data network can express.
		supportedOnSnoop bool
	}{
		{fault.DropOnce{At: 10_000}, true},
		{fault.DropEvery{Start: 10_000, Period: 50_000}, true},
		{fault.CorruptOnce{At: 10_000}, true},
		{fault.DuplicateOnce{At: 10_000}, true},
		{fault.MisrouteOnce{At: 10_000}, false},
		{fault.KillSwitch{Node: 1, Axis: topology.EW, At: 10_000}, false},
		{fault.KillSwitch{Node: 2, Axis: topology.NS, At: 10_000}, false},
	}

	m := newMachine(t, true)
	sn := snoop.New(snoop.DefaultConfig(), workload.Stress())
	backends := []struct {
		name     string
		target   fault.Target
		supports func(supportedOnSnoop bool) bool
	}{
		{"directory", m.FaultTarget(), func(bool) bool { return true }},
		{"snoop", sn.FaultTarget(), func(s bool) bool { return s }},
	}

	for _, be := range backends {
		for _, tc := range events {
			err := tc.ev.Arm(be.target)
			if be.supports(tc.supportedOnSnoop) {
				if err != nil {
					t.Errorf("%s: %s failed to arm: %v", be.name, tc.ev, err)
				}
				continue
			}
			if !errors.Is(err, fault.ErrUnsupported) {
				t.Errorf("%s: %s err = %v, want ErrUnsupported", be.name, tc.ev, err)
			}
		}
	}
}

// TestEmptyTargetRejected: a target with no interconnect at all must
// error, not dereference nil.
func TestEmptyTargetRejected(t *testing.T) {
	for _, ev := range []fault.Event{
		fault.DropOnce{At: 1},
		fault.DropEvery{Start: 1, Period: 1},
		fault.CorruptOnce{At: 1},
		fault.DuplicateOnce{At: 1},
		fault.MisrouteOnce{At: 1},
		fault.KillSwitch{Node: 0, Axis: topology.EW, At: 1},
	} {
		if err := ev.Arm(fault.Target{}); err == nil {
			t.Errorf("%s armed on an empty target", ev)
		}
	}
}

// TestCorruptLossAccountingMatchesAcrossBackends: a corrupted message is
// discarded at the endpoint's CRC check, so both backends must count it
// in Counters.MessagesDropped.
func TestCorruptLossAccountingMatchesAcrossBackends(t *testing.T) {
	m := newMachine(t, true)
	if err := (fault.CorruptOnce{At: 300_000}).Arm(m.FaultTarget()); err != nil {
		t.Fatal(err)
	}
	m.Start()
	m.Run(1_500_000)
	if c := m.Counters(); c.MessagesDropped == 0 || c.Recoveries == 0 {
		t.Fatalf("directory corrupt loss not accounted: %+v", c)
	}

	sn := snoop.New(snoop.DefaultConfig(), workload.Stress())
	if err := (fault.CorruptOnce{At: 60_000}).Arm(sn.FaultTarget()); err != nil {
		t.Fatal(err)
	}
	sn.Start()
	sn.Run(400_000)
	if c := sn.Counters(); c.MessagesDropped == 0 || c.Recoveries == 0 {
		t.Fatalf("snoop corrupt loss not accounted: %+v", c)
	}
}

// TestSnoopPlanThroughSharedPath arms a composed plan on the snoop
// backend through Plan.Arm, mirroring what runner.RunCtx does.
func TestSnoopPlanThroughSharedPath(t *testing.T) {
	sn := snoop.New(snoop.DefaultConfig(), workload.Stress())
	plan := fault.Plan{
		fault.DropOnce{At: 40_000},
		fault.DropEvery{Start: 100_000, Period: 200_000},
		fault.CorruptOnce{At: 60_000},
	}
	if err := plan.Arm(sn.FaultTarget()); err != nil {
		t.Fatal(err)
	}
	bad := fault.Plan{
		fault.DropOnce{At: 40_000},
		fault.KillSwitch{Node: 3, Axis: topology.EW, At: 50_000},
	}
	err := bad.Arm(sn.FaultTarget())
	if !errors.Is(err, fault.ErrUnsupported) {
		t.Fatalf("plan with a switch kill on the bus: err = %v", err)
	}
}
