package machine

import (
	"safetynet/internal/backend"
	"safetynet/internal/fault"
	"safetynet/internal/network"
	"safetynet/internal/sim"
)

// This file adapts Machine to the protocol-neutral backend.Backend
// contract shared with the snooping system; runner.NewBackend asserts
// the interface is satisfied.

// Now returns the current simulation time.
func (m *Machine) Now() sim.Time { return m.Eng.Now() }

// Resume restarts every processor after a Quiesce.
func (m *Machine) Resume() { m.ResumeAll() }

// CrashInfo reports the crash state of the unprotected baseline.
func (m *Machine) CrashInfo() (bool, string) { return m.Crashed, m.CrashCause }

// FaultTarget returns the interconnect and topology fault events arm on.
func (m *Machine) FaultTarget() fault.Target {
	return fault.Target{Net: m.Net, Topo: m.Topo}
}

// Observe registers a backend-neutral run observer.
func (m *Machine) Observe(o *backend.Observer) { m.obs = append(m.obs, o) }

// Counters returns the cumulative protocol-neutral statistics.
func (m *Machine) Counters() backend.Counters {
	ns := m.Net.Stats()
	// Fault-induced losses only, to line up with the snoop backend:
	// injected drops, messages lost in killed or unroutable switches, and
	// corrupted messages (discarded at the endpoint's CRC check). The
	// protocol's own epoch/recovery discards are not losses.
	lost := ns.Dropped[network.DropInjectedFault] +
		ns.Dropped[network.DropDeadSwitch] +
		ns.Dropped[network.DropUnroutable] +
		ns.Corrupted
	c := backend.Counters{
		Instrs:           m.TotalInstrs(),
		InstrsRolledBack: m.InstrsRolledBack,
		MessagesSent:     ns.Sent,
		MessagesDropped:  lost,
	}
	for _, n := range m.Nodes {
		s := n.CC.Stats()
		c.StoresLogged += s.StoresLogged
		c.TransfersLogged += s.TransfersLogged
	}
	if svc := m.ActiveService(); svc != nil {
		c.Recoveries = len(svc.Recoveries())
	}
	return c
}
