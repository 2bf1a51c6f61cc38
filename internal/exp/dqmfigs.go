package exp

import (
	"fmt"

	"mlcc/internal/core"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
	"mlcc/internal/topo"
)

// dqmCell drives four cross-DC flows of size[scale] bytes into two Rack-5
// receivers at DQM θ = theta (two flows per 25G server link ⇒ 12.5 Gbps
// fair share, the paper's Fig. 9b setting), flow i starting at
// 1 ms + i·stagger. Four 25G senders fit the 100G long haul exactly, so the
// burst accumulates at the receiver-side DCI PFQs, which DQM must then
// regulate.
func dqmCell(name string, theta sim.Time, window span, size [2]int64, stagger sim.Time) cell {
	return cell{
		name: name, config: runFor(spec.Config{HostsPerLeaf: 4, Theta: theta}, window), sample: 200 * sim.Microsecond,
		place: func(o *outcome) error {
			for i := 0; i < 4; i++ {
				o.addGroupFlow("flows", o.n.RackHost(1, i), o.n.RackHost(5, i/2), size[o.scale], sim.Millisecond+sim.Time(i)*stagger)
			}
			o.q = o.trackQueue(fmt.Sprintf("dciQ[theta=%v]", theta), o.n.DCIs[1])
			o.series = append(o.series, o.q)
			return nil
		},
	}
}

// fig9 sweeps θ ∈ {6, 18, 30 ms} with D_t = 1 ms on a simultaneous burst and
// reports peak and steady queue; 9(b)'s per-flow check is the last three
// columns: the managed per-flow queue, DQM's set point R·D_t = 1.5625 MB
// (1.490 MiB) at the 12.5 Gbps fair rate, and their ratio.
var fig9 = figure{
	id:    "fig9",
	title: "DQM θ sweep, simultaneous burst",
	algs:  []string{topo.AlgMLCC},
	cells: []cell{
		fig9Cell(6 * sim.Millisecond), fig9Cell(18 * sim.Millisecond), fig9Cell(30 * sim.Millisecond),
	},
	layout: byCell("Receiver-side DCI queue vs θ (D_t = 1 ms)", "MiB",
		column{"peak", func(o *outcome) float64 { return o.q.Max() / (1 << 20) }},
		column{"steady", func(o *outcome) float64 { return o.q.AvgAfter(o.window-20*sim.Millisecond) / (1 << 20) }},
		column{"perFlowSteady", perFlowSteady},
		column{"setPoint", dqmSetPoint},
		column{"ratio", func(o *outcome) float64 { return perFlowSteady(o) / dqmSetPoint(o) }}),
	notes: []string{
		"expected shape: queue falls from its startup peak to a few MB; θ=6ms is aggressive/jittery, θ=30ms slow, θ=18ms in between",
		"setPoint is DQM's Eq. 5 fixed point R·D_t = 12.5Gbps × 1ms per flow (paper Fig. 9b); ratio = perFlowSteady / setPoint grows with θ, a bias EXPERIMENTS.md records as a deviation",
	},
}

// perFlowSteady is the average PFQ backlog per live flow at the
// receiver-side DCI, in MiB.
func perFlowSteady(o *outcome) float64 {
	var per float64
	live := 0
	for _, f := range o.groups["flows"] {
		if b := o.n.DCIs[1].PFQBacklog(f.Info.ID); b > 0 {
			per += float64(b)
			live++
		}
	}
	if live > 0 {
		per /= float64(live)
	}
	return per / (1 << 20)
}

// dqmSetPoint is where Eq. 5 holds each PFQ, in MiB: R·D_t, with R the fair
// share of a receiver's line rate, which two of the four flows split.
func dqmSetPoint(o *outcome) float64 {
	r := o.n.Hosts[o.n.RackHost(5, 0)].Port().Rate / 2
	return float64(sim.BDPBytes(r, core.TargetDelay)) / (1 << 20)
}

// fig9Cell is one θ of the sweep: long-lived flows, all starting at 1 ms.
func fig9Cell(theta sim.Time) cell {
	return dqmCell(theta.String(), theta, span{50 * sim.Millisecond, 80 * sim.Millisecond}, [2]int64{1 << 30, 1 << 30}, 0)
}

// fig10 staggers finite flows (sequential burst) at θ = 18 ms: the queue is
// regulated while flows are active and drains as they complete.
var fig10 = figure{
	id:    "fig10",
	title: "DQM sequential burst, θ = 18 ms",
	algs:  []string{topo.AlgMLCC},
	cells: []cell{
		dqmCell("theta=18ms", 18*sim.Millisecond, span{60 * sim.Millisecond, 100 * sim.Millisecond}, [2]int64{20 << 20, 40 << 20}, 3*sim.Millisecond),
	},
	layout: func(rep *Report, outs [][]*outcome) {
		byCell("Receiver-side DCI queue, sequential burst", "MiB",
			column{"peak", func(o *outcome) float64 { return o.q.Max() / (1 << 20) }},
			column{"mid", func(o *outcome) float64 { return o.q.AvgAfter(o.window/2) / (1 << 20) }},
			column{"final", func(o *outcome) float64 { return o.q.Last() / (1 << 20) }})(rep, outs)
		rep.addNote("%d of 4 finite flows completed; queue must drain toward zero as they finish", outs[0][0].sum.Done)
	},
}
