package topo

import (
	"mlcc/internal/guard"
	"mlcc/internal/host"
	"mlcc/internal/metrics"
)

// applyGuard arms P.Guard on the built network: every device becomes a
// wait-for-graph node (its ports monitored for pause storms), every host a
// progress probe, and the plane ticks as a quiescent hook — reading across
// shards with all engines parked, exactly like telemetry sampling. The
// plane's counters register under "guard.*" when telemetry is wired, its
// dumps merge the per-shard flight-recorder rings, and its stall supervisor
// requests a graceful Run halt. Defaults scale with the cross-DC RTT, the
// topology's largest base RTT, and the stall patience is floored by the
// hosts' RTO floor.
func (n *Network) applyGuard() {
	if n.P.Guard == nil {
		return
	}
	rows := make([]guard.Node, len(n.devs))
	nodes := make([]*guard.Node, len(n.devs))
	probes := make([]guard.Progress, 0, n.numHosts)
	for i := range n.devs {
		d := &n.devs[i]
		rows[i] = guard.Node{ID: int32(nodeID(i)), Name: d.name(), Ports: d.ports}
		nodes[i] = &rows[i]
		if d.host != nil {
			probes = append(probes, d.host)
		}
	}
	var frs []*metrics.FlightRecorder
	if tel := n.P.Telemetry; tel != nil {
		frs = tel.ShardRecorders(n.shards)
	}
	rtoMin := n.P.RTOMin
	if rtoMin <= 0 {
		rtoMin = host.DefaultRTOMin
	}
	n.Guard = guard.New(*n.P.Guard, n.crossRTT(), rtoMin, nodes, probes, frs, n.requestHalt)
	n.P.Telemetry.Registry().Add("guard", n.Guard)
	n.OnQuiescent(n.Guard.Every(), n.Guard.Tick)
}
