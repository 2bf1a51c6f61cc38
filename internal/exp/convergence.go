package exp

import (
	"fmt"
	"math"
	"slices"

	"mlcc/internal/host"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
)

// convCell is one convergence run: nf long-lived flows from rack 1's first
// hosts into rack 5, perDst flows per receiver, flow i starting at
// 1 ms + i·stagger, run until horizon. A sender-side cell squeezes rack 1
// (eight hosts) behind one spine's 100G uplink and reads that uplink's
// utilization; a receiver-side cell also reports the receiver-side DCI
// queue. Each flow's steady-state rate is measured over [steady, window), and
// the uplink's utilization over [steady, h) at every multiple h of window the
// run reaches, from bytes read with the network quiescent, so every read is
// exact and shard-safe on any layout.
func convCell(name string, senderSide bool, nf, perDst int, stagger, window, steady, horizon span) cell {
	shape := spec.Config{HostsPerLeaf: 4}
	if senderSide {
		shape = spec.Config{SpinesPerDC: 1, HostsPerLeaf: 8}
	}
	return cell{
		name: name, config: runFor(shape, horizon), sample: 200 * sim.Microsecond,
		place: func(o *outcome) error {
			flows := make([]*host.Flow, nf)
			for i := range flows {
				f := o.n.AddFlow(o.n.RackHost(1, i), o.n.RackHost(5, i/perDst), 1<<30, sim.Millisecond+sim.Time(i)*stagger[o.scale])
				flows[i] = f
				o.series = append(o.series, o.trackRate(fmt.Sprintf("flow%d", i), func() int64 { return f.RxBytes }))
			}
			if o.q = o.trackQueue("dciQ", o.n.DCIs[1]); !senderSide {
				o.series = append(o.series, o.q)
			}
			uplink := o.n.Leaves[0].Port(o.n.P.HostsPerLeaf)
			from, to, snap := steady[o.scale], window[o.scale], make([]int64, nf)
			var upSnap, xoffSnap int64
			var pausedSnap sim.Time
			o.n.OnQuiescent(from, func(now sim.Time) {
				if now == from {
					for i, f := range flows {
						snap[i] = f.RxBytes
					}
					upSnap = uplink.TxBytes
					pausedSnap, xoffSnap = rackPFC(o.n, 1, now)
				}
			})
			o.n.OnQuiescent(to, func(now sim.Time) {
				if now == to {
					for i, f := range flows {
						o.rates = append(o.rates, float64(f.RxBytes-snap[i])*8/(now-from).Seconds())
					}
					paused, xoffs := rackPFC(o.n, 1, now)
					o.pausedShare = (paused - pausedSnap).Seconds() / (float64(o.n.P.HostsPerLeaf) * (now - from).Seconds())
					o.xoffs = float64(xoffs - xoffSnap)
				}
				if senderSide {
					o.util = append(o.util, float64(uplink.TxBytes-upSnap)*8/(now-from).Seconds()/float64(uplink.Rate))
				}
			})
			return nil
		},
	}
}

// rackPFC sums rack r's hosts' data-class paused time and the pause frames
// (Xoffs) they received, as of now.
func rackPFC(n *topo.Network, r int, now sim.Time) (paused sim.Time, xoffs int64) {
	for i := 0; i < n.P.HostsPerLeaf; i++ {
		port := n.Hosts[n.RackHost(r, i)].Port()
		paused += port.PausedTotalAt(now)
		xoffs += port.PauseRx
	}
	return paused, xoffs
}

// pfcCols read how much PFC, rather than the algorithm, held the senders
// back over [steady, window): rack 1's hosts' paused share of host-time, and
// the Xoffs their leaf sent them.
var pfcCols = []column{
	{"pausedShare", func(o *outcome) float64 { return o.pausedShare }},
	{"xoffs", func(o *outcome) float64 { return o.xoffs }},
}

// Convergence columns: the steady-state per-flow rates in Gbps and their
// Jain index.
var convCols = []column{
	{"min", func(o *outcome) float64 { return slices.Min(o.rates) / 1e9 }},
	{"max", func(o *outcome) float64 { return slices.Max(o.rates) / 1e9 }},
	{"mean", func(o *outcome) float64 { return meanRate(o) / 1e9 }},
	{"jain", func(o *outcome) float64 { return stats.JainIndex(o.rates) }},
}

func meanRate(o *outcome) float64 {
	var sum float64
	for _, r := range o.rates {
		sum += r
	}
	return sum / float64(len(o.rates))
}

// dciQMiB is the receiver-side DCI queue's mean from the steady-state point
// on, in MiB.
func dciQMiB(o *outcome, steady span) float64 { return o.q.AvgAfter(steady[o.scale]) / (1 << 20) }

var (
	fig7Window, fig7Steady = span{28 * sim.Millisecond, 50 * sim.Millisecond}, span{18 * sim.Millisecond, 35 * sim.Millisecond}
	fig7Horizon            = span{2 * fig7Window[Quick], 2 * fig7Window[Full]}
	fig8Window, fig8Steady = span{36 * sim.Millisecond, 60 * sim.Millisecond}, span{24 * sim.Millisecond, 40 * sim.Millisecond}
	ablWindow, ablSteady   = span{36 * sim.Millisecond, 50 * sim.Millisecond}, span{24 * sim.Millisecond, 35 * sim.Millisecond}
)

// ageCols are the median ages, in µs, of the signals the senders cut their
// rate on, per INT-driven loop: MLCC's near-source Switch-INT loop and the
// end-to-end ACK loop (registry histograms cc.<alg>.<loop>_age_ns, whose
// medians are log2 bucket bounds). A loop that cut no rate, or that the
// algorithm does not run, reads 0.
var ageCols = []column{ageCol("sint"), ageCol("ack")}

func ageCol(loop string) column {
	name := "cc.%s." + loop + "_age_ns.p50"
	return column{loop + "AgeUs", func(o *outcome) float64 {
		p50 := fmt.Sprintf(name, o.alg)
		for _, pt := range o.tel.Registry().Snapshot() {
			if pt.Name == p50 {
				return pt.Value / 1e3
			}
		}
		return 0
	}}
}

// hpccEta is HPCC's target utilization η (hpcc.DefaultParams).
const hpccEta = 0.95

// Fixed-point columns: the bottleneck uplink's utilization U and η, whose
// ratio HPCC's window law drives to 1, read at the window and at twice it.
var fixedPointCols = []column{
	{"U", func(o *outcome) float64 { return o.util[0] }},
	{"eta", func(o *outcome) float64 { return hpccEta }},
	{"U/eta", func(o *outcome) float64 { return o.util[0] / hpccEta }},
	{"U@2x", func(o *outcome) float64 { return o.util[1] }},
	{"U/eta@2x", func(o *outcome) float64 { return o.util[1] / hpccEta }},
}

const ageNote = "sintAgeUs/ackAgeUs: median age (µs; its log2 bucket's top, clipped at the largest age) of the signal each rate cut acted on, on the Switch-INT and ACK loops; 0 = no cut on that loop"

// fig7 places the bottleneck in the sender-side datacenter: eight senders in
// Rack 1 share that rack's single 100G uplink toward eight receivers in
// Rack 5, all at once or one per stagger. Fair share is 12.5 Gbps per flow.
// HPCC runs beside MLCC on the simultaneous start for its fixed point on that
// uplink, U → η. Each run goes on to twice the window; the rates read at the
// window are those of a run that ends there.
var fig7 = figure{
	id:    "fig7",
	title: "MLCC convergence, sender-side bottleneck",
	algs:  []string{topo.AlgMLCC},
	cells: []cell{
		convCell("simultaneous", true, 8, 1, span{}, fig7Window, fig7Steady, fig7Horizon).with(topo.AlgMLCC, topo.AlgHPCC),
		convCell("sequential", true, 8, 1, span{1500 * sim.Microsecond, 2 * sim.Millisecond}, fig7Window, fig7Steady, fig7Horizon),
	},
	layout: func(rep *Report, outs [][]*outcome) {
		byCell("Steady-state per-flow rate", "Gbps", slices.Concat(convCols, fixedPointCols, ageCols, pfcCols)...)(rep, outs)
		for _, row := range outs {
			for _, o := range row {
				if o.pausedShare > 0.1 { // past a tenth of the window, PFC sets the rates
					rep.addNote("%s/%s: rack 1's hosts are PFC-paused %.1f %% of the read window (%.0f Xoffs): PFC, not %s, bounds these rates",
						o.cell.name, o.alg, 100*o.pausedShare, o.xoffs, o.alg)
				}
				if u, u2 := o.util[0], o.util[1]; math.Abs(u2/u-1) > 0.01 {
					rep.addNote("%s/%s: U %.3f at the window, %.3f at twice it (%+.1f %%): not settled, no fixed point read",
						o.cell.name, o.alg, u, u2, 100*(u2/u-1))
				}
			}
		}
	},
	notes: []string{"fair share is 12.5 Gbps (8×25G offered into one 100G uplink); jain≈1 means converged",
		"U is rack 1's uplink utilization from the steady point to the window (U@2x: to twice the window); HPCC's law drives U/eta to 1",
		ageNote,
		"pausedShare: rack 1's hosts' PFC-paused share of host-time from the steady point to the window; xoffs: the pause frames their leaf sent them there"},
}

// fig8 places the bottleneck in the receiver-side datacenter: four cross-DC
// senders target one 25G receiver. Fair share is 6.25 Gbps; the
// receiver-side DCI queue is managed by DQM after convergence.
var fig8 = figure{
	id:    "fig8",
	title: "MLCC convergence, receiver-side bottleneck",
	algs:  []string{topo.AlgMLCC},
	cells: []cell{
		convCell("simultaneous", false, 4, 4, span{}, fig8Window, fig8Steady, fig8Window),
		convCell("sequential", false, 4, 4, span{2 * sim.Millisecond, 3 * sim.Millisecond}, fig8Window, fig8Steady, fig8Window),
	},
	layout: byCell("Steady-state per-flow rate", "Gbps", slices.Concat(convCols,
		[]column{{"dciQMiB", func(o *outcome) float64 { return dciQMiB(o, fig8Steady) }}}, ageCols)...),
	notes: []string{"fair share is 6.25 Gbps (4 flows into one 25G server link); DQM holds the DCI queue near R·D_t after convergence",
		ageNote},
}

// ablationFig quantifies the design choices DESIGN.md calls out by removing
// one loop at a time:
//
//   - Sender-side cell (fig7 shape): without the near-source loop the sender
//     only learns about sender-side congestion when it inflates the DCI
//     queue; convergence degrades and the queue grows.
//   - Receiver-side cell (four flows into two 25G servers): without DQM
//     nothing drains the receiver-side DCI queue below "whatever accumulated
//     during the first RTT_C"; the standing queue stays large.
var ablationFig = figure{
	id:    "ablation",
	title: "MLCC ablation: contribution of the near-source and DQM loops",
	algs:  []string{topo.AlgMLCC, topo.AlgMLCCNoNS, topo.AlgMLCCNoDQM},
	cells: []cell{
		convCell("send", true, 8, 1, span{}, ablWindow, ablSteady, ablWindow),
		convCell("recv", false, 4, 2, span{}, ablWindow, ablSteady, ablWindow),
	},
	// One row per variant, the two cells side by side; the per-flow series
	// are fig7's and fig8's to show, so this figure reports its table alone.
	layout: func(rep *Report, outs [][]*outcome) {
		tbl := newTable("Loop contributions", "", "sendJain", "sendMeanGbps", "recvJain", "recvDciQMiB")
		for i, send := range outs[0] {
			recv := outs[1][i]
			tbl.addRow(send.alg, stats.JainIndex(send.rates), meanRate(send)/1e9, stats.JainIndex(recv.rates), dciQMiB(recv, ablSteady))
		}
		rep.Tables = append(rep.Tables, tbl)
		rep.Series = nil
	},
	notes: []string{"mlcc-nons must show degraded sender-side convergence; mlcc-nodqm must show a much larger standing receiver-side DCI queue"},
}
