package exp

import (
	"fmt"

	"mlcc/internal/fault"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
)

// Feedback-fault phase timeline (dumbbell, 100 µs long haul, cross-DC
// BaseRTT ≈ 230 µs — inside Timely's THigh=500µs operating band; on a longer
// haul Timely floors at MinRate even fault-free and nothing would complete).
// Loss and corruption phases attack most of the transfer; the blackout
// severs ALL feedback for 4 ms mid-flow — many silent RTTs for the armed
// watchdog (K = 2: silent for max(2·RTT, RTOMin) = 0.5 ms on every flow,
// the µs-RTT intra-DC ones included) to decay through, while the go-back-N
// RTO (max(4·RTT, RTOMin) ≈ 0.93 ms cross-DC) fires only a handful of times
// against a budget of 16, so nothing aborts.
const (
	fbWindow     = 40 * sim.Millisecond
	fbFaultStart = sim.Millisecond
	fbFaultEnd   = 20 * sim.Millisecond
	fbBlackStart = 6 * sim.Millisecond
	fbBlackEnd   = 10 * sim.Millisecond
	fbWatchdogK  = 2
)

// fbResilienceFig compares all five algorithms under each feedback-plane
// attack on the dumbbell: do flows still complete, do the books balance with
// feedback destroyed at ingress, and does the watchdog decay and then recover
// across the blackout? Each cell is a one-rule plan against every host.
var fbResilienceFig = figure{
	id:    "fb-resilience",
	title: "Feedback-plane resilience (dumbbell, all algorithms)",
	cells: []cell{
		fbCell("ack-loss", fault.FeedbackRule{Host: "*", Kinds: fault.FBAck, Drop: 0.3, Start: fbFaultStart, End: fbFaultEnd}),
		fbCell("cnp-loss", fault.FeedbackRule{Host: "*", Kinds: fault.FBCNP, Drop: 0.9, Start: fbFaultStart, End: fbFaultEnd}),
		fbCell("int-corrupt", fault.FeedbackRule{Host: "*", Kinds: fault.FBAck | fault.FBSwitchINT, Corrupt: 0.5,
			Start: fbFaultStart, End: fbFaultEnd}),
		fbCell("blackout", fault.FeedbackRule{Host: "*", Drop: 1, Start: fbBlackStart, End: fbBlackEnd}),
	},
	notes: []string{
		fmt.Sprintf("attacks: ack-loss 30%%, cnp-loss 90%% and int-corrupt 50%% over %v-%v; blackout drops ALL feedback %v-%v",
			fbFaultStart, fbFaultEnd, fbBlackStart, fbBlackEnd),
		fmt.Sprintf("watchdog armed at K=%d RTTs: wdDecays>0 then wdRecovers>0 in the blackout row shows graceful decay and multiplicative recovery", fbWatchdogK),
		"expected shape: every flow completes (done=4, aborted=0) and auditProblems=0 in every cell — dropped feedback never unbalances the conservation books",
	},
}

// fbCell is one algorithm-under-attack cell: two long cross flows that
// straddle every fault window plus two short intra flows, with the watchdog
// armed. The blackout cell also tracks the cross flows' goodput.
func fbCell(name string, rule fault.FeedbackRule) cell {
	group := func(o *outcome) string { return "fb:" + o.n.Alg.Name + ":" + name }
	return cell{
		name: name, title: "Feedback fault: " + name,
		config: func(cfg Config) spec.Config {
			c := testbed(100*sim.Microsecond, fbWindow)
			c.FBWatchdogK = fbWatchdogK
			c.Fault = &fault.Plan{Seed: cfg.Seed, Feedback: []fault.FeedbackRule{rule}}
			return c
		},
		sample: 100 * sim.Microsecond,
		place: func(o *outcome) error {
			// 24 MB at 25 Gbps is ≈8 ms of wire time: both cross flows are
			// mid-transfer through the loss windows and the blackout.
			o.addGroupFlow(group(o), 0, 2, 24<<20, 500*sim.Microsecond)
			o.addGroupFlow(group(o), 3, 1, 24<<20, 500*sim.Microsecond)
			o.n.AddFlow(0, 1, 4<<20, sim.Millisecond)
			o.n.AddFlow(2, 3, 4<<20, sim.Millisecond)
			if name == "blackout" {
				o.series = append(o.series, o.trackGroupRate(group(o)))
			}
			return nil
		},
		cols: []column{
			colDone, colAborted,
			{"fbDrops", func(o *outcome) float64 { return float64(o.sum.FBDropped) }},
			{"fbCorrupts", func(o *outcome) float64 { return float64(o.n.Faults.Counts().FBCorrupts) }},
			{"invalidINT", func(o *outcome) float64 { return float64(o.sum.InvalidINT) }},
			{"wdDecays", func(o *outcome) float64 { return float64(o.sum.WatchdogDecays) }},
			{"wdRecovers", func(o *outcome) float64 { return float64(o.sum.WatchdogRecovers) }},
			colRetrans,
			{"crossGbps", func(o *outcome) float64 {
				bytes, t := crossTotals(o, group(o))
				if t == 0 {
					return 0
				}
				return float64(bytes) * 8 / t.Seconds() / 1e9
			}},
			{"crossFCTms", func(o *outcome) float64 {
				_, t := crossTotals(o, group(o))
				return t.Millis()
			}},
			colAudit,
		},
	}
}

// crossTotals returns the bytes a flow group delivered and its slowest
// member's completion time (0 when none finished).
func crossTotals(o *outcome, group string) (bytes int64, slowest sim.Time) {
	for _, f := range o.groups[group] {
		bytes += f.RxBytes
		if fct := f.FCT(); fct > slowest {
			slowest = fct
		}
	}
	return bytes, slowest
}
