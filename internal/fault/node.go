package fault

import (
	"fmt"

	"mlcc/internal/metrics"
	"mlcc/internal/sim"
)

// nodeKind classifies a resolved node for action/type checking: crash/restart
// apply to hosts, fail/recover to switches.
type nodeKind uint8

// Node kinds.
const (
	NodeHost nodeKind = iota
	NodeSwitch
)

// String names the kind for diagnostics.
func (k nodeKind) String() string {
	if k == NodeHost {
		return "host"
	}
	return "switch"
}

// NodeHooks is one resolvable node's fault surface. Apply[i] runs on engine
// Engs[i] at each of the node's event times; index 0 is the node's home
// engine and records the EvNodeState flight-recorder event (the device counts
// the event itself). A node whose failure must be observed by a peer engine (a DCI switch whose
// long-haul cable crosses the shard boundary) lists that engine too, with an
// Apply closure that cuts/restores the remote cable end at the same absolute
// time — the same per-direction ownership scheme scripted link events use.
// Resolvers must report the same hook count on every shard layout (extra
// hooks degenerate to idempotent no-ops on a single engine): the digest folds
// the fired-event count, so the schedule has to be layout-invariant.
type NodeHooks struct {
	ID    int32 // topology node id, for flight-recorder attribution
	Kind  nodeKind
	Engs  []*sim.Engine
	Apply []func(act NodeAction)
}

// nodeResolver maps a plan's symbolic node names ("host<i>", "leaf<i>",
// "spine<i>", "dci<i>") onto built devices; topologies provide one
// (topo.Network.nodeHooksByName).
type nodeResolver func(name string) (*NodeHooks, error)

// applyNodes resolves and schedules the plan's node events. Resolution is
// memoized in plan order so scheduling never depends on map iteration;
// build-time scheduling gives the events minimal insertion sequence numbers
// on every engine, the property the shard-digest tests rely on.
func (inj *Injector) applyNodes(resolveNode nodeResolver) error {
	if len(inj.plan.Nodes) == 0 {
		return nil
	}
	if resolveNode == nil {
		return fmt.Errorf("fault: plan has node events but no node resolver")
	}
	for i := range inj.plan.Nodes {
		ev := inj.plan.Nodes[i]
		nh, ok := inj.nodes[ev.Node]
		if !ok {
			var err error
			nh, err = resolveNode(ev.Node)
			if err != nil {
				return fmt.Errorf("fault: node event %d: %w", i, err)
			}
			if len(nh.Engs) == 0 || len(nh.Engs) != len(nh.Apply) {
				return fmt.Errorf("fault: node %q resolved with mismatched engine/apply lists", ev.Node)
			}
			inj.nodes[ev.Node] = nh
		}
		hostAct := ev.Action == HostCrash || ev.Action == HostRestart
		if hostAct != (nh.Kind == NodeHost) {
			return fmt.Errorf("fault: node event %d: action %q does not apply to %s %q",
				i, ev.Action, nh.Kind, ev.Node)
		}
		for e := range nh.Engs {
			fr, ok := inj.frOf[nh.Engs[e]]
			if !ok {
				return fmt.Errorf("fault: node %q engine %d is outside the build", ev.Node, e)
			}
			e := e
			ev := ev
			nh.Engs[e].At(ev.At, func() { fireNode(fr, nh, e, ev) })
		}
	}
	return nil
}

// fireNode executes one node event's slice on one engine. The home engine
// (index 0) records the flight-recorder event, so a multi-engine event is
// recorded once.
func fireNode(fr *metrics.FlightRecorder, nh *NodeHooks, e int, ev NodeEvent) {
	nh.Apply[e](ev.Action)
	if e == 0 && fr != nil {
		fr.Record(metrics.Event{T: nh.Engs[e].Now(), Kind: metrics.EvNodeState,
			Node: int16(nh.ID), Port: -1, Val: int64(ev.Action)})
	}
}
