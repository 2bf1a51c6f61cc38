package exp

import (
	"mlcc/internal/sim"
	"mlcc/internal/spec"
	"mlcc/internal/topo"
)

// motivAlgs are the algorithms the paper's motivation experiments examine.
var motivAlgs = []string{topo.AlgDCQCN, topo.AlgPowerTCP}

// fig2 reproduces Experiment 1: at 1 ms four Rack5→Rack6 intra flows, at
// 2 ms four Rack1→Rack6 cross flows; the receiver-side leaf's shallow buffer
// fills and PFC fires, throttling the intra flows.
var fig2 = figure{
	id:    "fig2",
	title: "Motivation: PFC triggered by cross-DC bursts (receiver-side congestion)",
	algs:  motivAlgs,
	cells: []cell{{
		name: "receiver-side", title: "Receiver-side congestion",
		config: runFor(spec.Config{HostsPerLeaf: 4}, span{20 * sim.Millisecond, 30 * sim.Millisecond}),
		sample: 100 * sim.Microsecond,
		place: func(o *outcome) error {
			for i := 0; i < 4; i++ {
				o.addGroupFlow("intra", o.n.RackHost(5, i), o.n.RackHost(6, i), 1<<30, sim.Millisecond)
			}
			for i := 0; i < 4; i++ {
				o.addGroupFlow("cross", o.n.RackHost(1, i), o.n.RackHost(6, i), 1<<30, 2*sim.Millisecond)
			}
			intra, cross := o.trackGroupRate("intra"), o.trackGroupRate("cross")
			// Rack 6 is global leaf index 5.
			o.series = append(o.series, o.trackQueue("leafQ:"+o.alg, o.n.Leaves[5]), intra, cross)
			return nil
		},
		cols: []column{
			{"intraGbps", func(o *outcome) float64 { return steadyGbps(o, 1, fig2Steady) }},
			{"crossGbps", func(o *outcome) float64 { return steadyGbps(o, 2, fig2Steady) }},
			{"peakLeafQMiB", func(o *outcome) float64 { return o.series[0].Max() / (1 << 20) }},
			{"pfcPauses", func(o *outcome) float64 { return float64(o.sum.PFCPauses) }},
		},
	}},
	notes: []string{"expected shape: cross-DC arrival at ~5 ms spikes the leaf queue and PFC pause count jumps above zero"},
}

// fig3 reproduces Experiment 2: intra flows start at 1 ms, cross flows join
// sequentially from 2 ms; with end-to-end feedback the short-RTT intra flows
// back off first and lose bandwidth. MLCC is the contrast: the paper's fix.
var fig3 = figure{
	id:    "fig3",
	title: "Motivation: intra vs cross unfairness at sender-side bottleneck",
	algs:  []string{topo.AlgDCQCN, topo.AlgPowerTCP, topo.AlgMLCC},
	cells: []cell{{
		name: "sender-side", title: "Sender-side sharing (steady state)",
		// One spine and eight hosts per rack: rack 1's single 100G uplink
		// is the shared sender-side bottleneck (8×25G offered).
		config: runFor(spec.Config{SpinesPerDC: 1, HostsPerLeaf: 8}, span{26 * sim.Millisecond, 40 * sim.Millisecond}),
		sample: 100 * sim.Microsecond,
		place: func(o *outcome) error {
			for i := 0; i < 4; i++ {
				o.addGroupFlow("intra", o.n.RackHost(1, i), o.n.RackHost(2, i), 1<<30, sim.Millisecond)
			}
			for i := 0; i < 4; i++ {
				start := 2*sim.Millisecond + sim.Time(i)*2*sim.Millisecond
				o.addGroupFlow("cross", o.n.RackHost(1, 4+i), o.n.RackHost(5, i), 1<<30, start)
			}
			o.series = append(o.series, o.trackGroupRate("intra"), o.trackGroupRate("cross"))
			return nil
		},
		cols: []column{
			{"intraGbps", func(o *outcome) float64 { return steadyGbps(o, 0, fig3Steady) }},
			{"crossGbps", func(o *outcome) float64 { return steadyGbps(o, 1, fig3Steady) }},
			{"intraShare", func(o *outcome) float64 {
				intra, cross := steadyGbps(o, 0, fig3Steady), steadyGbps(o, 1, fig3Steady)
				if intra+cross > 0 {
					return intra / (intra + cross)
				}
				return 0
			}},
		},
	}},
	notes: []string{"expected shape: baselines give intra flows well under the fair 0.5 share; MLCC's near-source loop restores it"},
}

var (
	fig2Steady = span{12 * sim.Millisecond, 20 * sim.Millisecond}
	fig3Steady = span{16 * sim.Millisecond, 25 * sim.Millisecond}
)

// fig4 reproduces Experiment 3: eight cross-DC flows converge on one
// receiver; with deep DCI buffers and lagging ECN the receiver-side DCI
// queue oscillates at tens of MB.
var fig4 = figure{
	id:    "fig4",
	title: "Motivation: receiver-side DCI switch queue under cross-DC incast",
	algs:  motivAlgs,
	cells: []cell{{
		name: "incast", title: "Receiver-side DCI queue",
		config: runFor(spec.Config{HostsPerLeaf: 4}, span{60 * sim.Millisecond, 100 * sim.Millisecond}),
		sample: 100 * sim.Microsecond,
		place: func(o *outcome) error {
			dst := o.n.RackHost(6, 0)
			for i := 0; i < 4; i++ {
				o.addGroupFlow("all", o.n.RackHost(1, i), dst, 1<<30, sim.Millisecond)
				o.addGroupFlow("all", o.n.RackHost(4, i), dst, 1<<30, sim.Millisecond)
			}
			rate := o.trackGroupRate("all")
			o.q = o.trackQueue("dciQ:"+o.alg, o.n.DCIs[1])
			o.series = append(o.series, o.q, rate)
			return nil
		},
		cols: []column{
			{"peakQMiB", func(o *outcome) float64 { return o.q.Max() / (1 << 20) }},
			{"avgQMiB", func(o *outcome) float64 { return o.q.AvgAfter(10*sim.Millisecond) / (1 << 20) }},
			{"finalQMiB", func(o *outcome) float64 { return o.q.Last() / (1 << 20) }},
			{"rxGbps", func(o *outcome) float64 { return steadyGbps(o, 1, span{10 * sim.Millisecond, 10 * sim.Millisecond}) }},
		},
	}},
	notes: []string{"expected shape: deep-buffer DCI queue builds to tens of MB and oscillates under end-to-end feedback"},
}

// steadyGbps is the mean of the i-th reported rate series from the
// steady-state point on, in Gbps.
func steadyGbps(o *outcome, i int, steady span) float64 {
	return o.series[i].AvgAfter(steady[o.scale]) / 1e9
}
