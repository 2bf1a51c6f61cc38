package topo

import (
	"fmt"

	"mlcc/internal/fault"
	"mlcc/internal/sim"
)

// linkByName resolves a fault-plan link name to its two ports. Names:
//
//	longhaul      the DCI↔DCI long-haul fiber
//	host<i>       host i's NIC link to its leaf/ToR, e.g. "host0"
//	leaf<i>:<p>   port p of leaf switch i, e.g. "leaf0:4" (an uplink)
//	spine<i>:<p>  port p of spine switch i
//	dci<i>:<p>    port p of DCI switch i
//
// Switch-relative names exist so a plan can target any individual cable; the
// common cases are "longhaul" and "host<i>". A and B are the two endpoint
// ports; faults applied through the injector hit both directions.
func (n *Network) linkByName(name string) (fault.Link, error) {
	a := n.port(name)
	if a == nil || a.Peer() == nil {
		return fault.Link{}, fmt.Errorf("topo: unknown link %q", name)
	}
	return fault.Link{Name: name, A: a, B: a.Peer()}, nil
}

// nodeHooksByName resolves a fault-plan node name to its fault surface.
// Names select whole devices: "host<i>", "leaf<i>", "spine<i>", "dci<i>".
// Hosts and intra-DC switches resolve to a single hook on their home engine —
// every cable they touch stays inside one shard, so Crash/Fail can cut both
// ends directly. A DCI switch on a sharded build gains a second hook on the
// peer shard's engine that cuts/restores the remote end of the long-haul
// cable at the same absolute time, mirroring the per-direction ownership
// scheme scripted link events use (cut-at-delivery epochs stay faithful
// because both directions transition at identical times).
func (n *Network) nodeHooksByName(name string) (*fault.NodeHooks, error) {
	d := n.device(name)
	if d == nil {
		return nil, fmt.Errorf("topo: unknown node %q", name)
	}
	var (
		id       int32
		eng      *sim.Engine
		kind     = fault.NodeSwitch
		down, up func()
	)
	if h := d.host; h != nil {
		id, eng, kind, down, up = int32(h.ID()), h.Eng, fault.NodeHost, h.Crash, h.Restart
	} else {
		id, eng, down, up = int32(d.sw.ID()), d.sw.Eng, d.sw.Fail, d.sw.Recover
	}
	nh := &fault.NodeHooks{
		ID:   id,
		Kind: kind,
		Engs: []*sim.Engine{eng},
		Apply: []func(fault.NodeAction){func(act fault.NodeAction) {
			if act == fault.HostCrash || act == fault.SwitchFail {
				down()
			} else {
				up()
			}
		}},
	}
	// The long-haul peer hook is scheduled on EVERY layout, not just
	// sharded ones: the digest folds the fired-event count, so the event
	// schedule must be layout-invariant (exactly as scripted link events
	// schedule one event per direction everywhere). On a single-engine
	// build Fail/Recover already cut/restore the peer end inline (the
	// link is not cross), so the hook fires as an idempotent no-op; on a
	// sharded build Fail skips the cross peer and this hook performs the
	// transition on the engine that owns it, at the same absolute time.
	if d.longHaul >= 0 {
		if peer := d.ports[d.longHaul].Peer(); peer != nil {
			nh.Engs = append(nh.Engs, peer.Eng)
			nh.Apply = append(nh.Apply, func(act fault.NodeAction) {
				peer.SetDown(act == fault.SwitchFail)
			})
		}
	}
	return nh, nil
}

// applyFaults installs P.Fault on the built network. A broken plan (unknown
// link, invalid rule) is a programming error on par with a routing hole, so
// it panics rather than limping along with a partially applied plan.
func (n *Network) applyFaults() {
	inj, err := fault.Apply(n.P.Fault, n.linkByName, n.nodeHooksByName, n.Engines, n.P.Telemetry)
	if err != nil {
		panic(fmt.Sprintf("topo: bad fault plan: %v", err))
	}
	n.Faults = inj
	if inj == nil {
		return
	}
	// Reverse-path rules bind at host feedback ingress; a rule that selects
	// no host is as broken as an unknown link name. Each filter is bound to
	// the engine of the shard its host runs on.
	for i := range n.devs[:n.numHosts] {
		d := &n.devs[i]
		if f := inj.FeedbackFilterFor(d.name(), d.host.ID(), d.host.Eng); f != nil {
			d.host.SetFeedbackFilter(f)
		}
	}
	if err := inj.FeedbackResolved(); err != nil {
		panic(fmt.Sprintf("topo: bad fault plan: %v", err))
	}
}
