package exp

import (
	"fmt"

	"mlcc/internal/fault"
	"mlcc/internal/guard"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
)

// Node-fault phase timeline (dumbbell, 100 µs long haul). The 16 MB cross
// flows need ≈5 ms of wire time at the 25 Gbps haul, so every fault lands
// mid-transfer. Outages are short against the go-back-N budget (RTO ≈ 0.93 ms
// with exponential backoff against MaxRetrans=16), so nothing aborts: crashes
// park and resume from the acked prefix, switch failures ride through on
// retransmission.
const (
	nodeWindow  = 40 * sim.Millisecond
	nodeFaultAt = 4 * sim.Millisecond
	nodeHealAt  = 8 * sim.Millisecond
	nodeSwHeal  = 7 * sim.Millisecond
	stormStart  = 2 * sim.Millisecond
	stormEnd    = 12 * sim.Millisecond
	// stormFactor throttles the long haul to 1% so the DCI ingress buffer
	// saturates and holds its upstream port paused at a duty cycle no
	// congestion controller can dodge from above its minimum rate.
	stormFactor = 0.01
)

// nodeResilienceFig compares all five algorithms under each node-fault cell
// on the dumbbell with the guard plane armed: do parked transfers resume
// after a crash, do the books close with a switch draining its buffers into
// the ledger mid-run, and does the storm watchdog flag the pause plateau
// without ever perturbing the run? Each cell pairs a fault plan with the
// guard configuration it runs under: the crash/failure cells use the guard's
// defaults (nothing should trigger); the pause-storm cell tightens the storm
// window so the sustained pause plateau is detected within the run.
var nodeResilienceFig = figure{
	id:    "node-resilience",
	title: "Node-fault resilience under the guard plane (dumbbell, all algorithms)",
	cells: []cell{
		nodeCell("sender-crash", true, guard.Config{}, fault.Plan{Nodes: []fault.NodeEvent{
			{At: nodeFaultAt, Node: "host0", Action: fault.HostCrash},
			{At: nodeHealAt, Node: "host0", Action: fault.HostRestart},
		}}),
		nodeCell("receiver-crash", false, guard.Config{}, fault.Plan{Nodes: []fault.NodeEvent{
			{At: nodeFaultAt, Node: "host2", Action: fault.HostCrash},
			{At: nodeHealAt, Node: "host2", Action: fault.HostRestart},
		}}),
		nodeCell("switch-failure", false, guard.Config{}, fault.Plan{Nodes: []fault.NodeEvent{
			{At: nodeFaultAt, Node: "dci0", Action: fault.SwitchFail},
			{At: nodeSwHeal, Node: "dci0", Action: fault.SwitchRecover},
		}}),
		nodeCell("pause-storm", true,
			guard.Config{Every: 50 * sim.Microsecond, StormWindow: sim.Millisecond, StormFrac: 0.6},
			fault.Plan{Events: []fault.Event{
				{At: stormStart, Link: "longhaul", Action: fault.Degrade, RateFactor: stormFactor},
				{At: stormEnd, Link: "longhaul", Action: fault.Restore},
			}}),
	},
	notes: []string{
		fmt.Sprintf("crash cells: host dies at %v and restarts at %v — parked transfers resume from the acked prefix, nothing aborts", nodeFaultAt, nodeHealAt),
		fmt.Sprintf("switch-failure cell: dci0 drains its buffers into the ledger at %v and recovers at %v; go-back-N rides the blackout on RTO backoff", nodeFaultAt, nodeSwHeal),
		fmt.Sprintf("pause-storm cell: long haul degraded to %.0f%% over %v-%v; storms>0 shows the guard flagging the sustained PFC pause plateau", stormFactor*100, stormStart, stormEnd),
		"expected shape: done=4, aborted=0, auditProblems=0 and stalls=0 in every cell; the guard plane reads only at quiescent points and never perturbs the schedule",
		"MLCC's near-source loop throttles cross senders within a few hundred µs of the degrade, so it alone tends to hold the pause duty below the storm threshold",
	},
}

// nodeCell is one algorithm-under-node-fault cell: two 16 MB cross flows
// straddling the fault window plus two short intra flows, with the guard
// plane armed at gc. plan is the cell's fault script (the run's seed is
// filled in); track adds the cross flows' goodput series to the report.
func nodeCell(name string, track bool, gc guard.Config, plan fault.Plan) cell {
	return cell{
		name: name, title: "Node fault: " + name,
		config: func(cfg Config) spec.Config {
			c := testbed(100*sim.Microsecond, nodeWindow)
			fp, g := plan, gc
			fp.Seed = cfg.Seed
			c.Fault, c.Guard = &fp, &g
			return c
		},
		sample: 100 * sim.Microsecond,
		place: func(o *outcome) error {
			group := "node:" + o.n.Alg.Name + ":" + name
			o.addGroupFlow(group, 0, 2, 16<<20, 500*sim.Microsecond)
			o.addGroupFlow(group, 3, 1, 16<<20, 500*sim.Microsecond)
			o.n.AddFlow(0, 1, 2<<20, sim.Millisecond)
			o.n.AddFlow(2, 3, 2<<20, sim.Millisecond)
			if track {
				o.series = append(o.series, o.trackGroupRate(group))
			}
			return nil
		},
		cols: []column{
			colDone, colAborted,
			{"crashes", func(o *outcome) float64 { return float64(o.sum.Crashes) }},
			{"restarts", func(o *outcome) float64 { return float64(o.sum.Restarts) }},
			{"swFails", func(o *outcome) float64 { return float64(o.sum.SwitchFails) }},
			{"swRecovers", func(o *outcome) float64 { return float64(o.sum.SwitchRecovers) }},
			{"storms", func(o *outcome) float64 { return float64(o.n.Guard.Storms) }},
			{"deadlocks", func(o *outcome) float64 { return float64(o.n.Guard.Deadlocks) }},
			{"stalls", func(o *outcome) float64 { return float64(o.n.Guard.Stalls) }},
			colRetrans, colAudit,
		},
	}
}
