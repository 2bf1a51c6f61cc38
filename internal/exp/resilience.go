package exp

import (
	"fmt"

	"mlcc/internal/fault"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
	"mlcc/internal/stats"
)

// Flap-phase timeline (dumbbell, 500 µs long haul). The long-lived cross
// flows see, in order: a clean baseline, a 2 ms blackout, a half-rate +100 µs
// degraded stretch, and a 1e-3 Bernoulli loss window; probes measure tail
// latency throughout.
const (
	resilFlapWindow  = 40 * sim.Millisecond
	resilDownAt      = 8 * sim.Millisecond
	resilUpAt        = 10 * sim.Millisecond
	resilDegradeAt   = 16 * sim.Millisecond
	resilRestoreAt   = 22 * sim.Millisecond
	resilLossStart   = 26 * sim.Millisecond
	resilLossEnd     = 32 * sim.Millisecond
	resilLossProb    = 1e-3
	resilSteadyAfter = 34 * sim.Millisecond
)

func resilFlapPlan(seed int64) *fault.Plan {
	return &fault.Plan{
		Seed: seed,
		Events: []fault.Event{
			{At: resilDownAt, Link: "longhaul", Action: fault.LinkDown},
			{At: resilUpAt, Link: "longhaul", Action: fault.LinkUp},
			{At: resilDegradeAt, Link: "longhaul", Action: fault.Degrade,
				RateFactor: 0.5, ExtraDelay: 100 * sim.Microsecond},
			{At: resilRestoreAt, Link: "longhaul", Action: fault.Restore},
		},
		Loss: []fault.LossRule{
			{Link: "longhaul", Prob: resilLossProb, Start: resilLossStart, End: resilLossEnd},
		},
	}
}

// resilienceFig drives two dumbbell cells per algorithm: a flap cell (down,
// up, degrade, lossy — does cross-DC goodput come back, and how fast?) and a
// blackout cell (long haul down for good — do senders abort cleanly while
// intra-DC traffic is untouched?).
var resilienceFig = figure{
	id:    "resilience",
	title: "Resilience under long-haul faults (dumbbell)",
	cells: []cell{
		{
			name: "flap", title: "Flap + degrade + loss (cross-DC goodput)",
			config: func(cfg Config) spec.Config {
				c := testbed(500*sim.Microsecond, resilFlapWindow)
				c.Fault = resilFlapPlan(cfg.Seed)
				return c
			},
			place: placeFlap, sample: 100 * sim.Microsecond,
			cols: []column{
				{"preGbps", func(o *outcome) float64 { return flapPre(o) }},
				{"recoveryMs", func(o *outcome) float64 {
					// Time from link-up until cross goodput first regains
					// 90% of its pre-fault average.
					if at, ok := firstAtOrAbove(o.series[0], resilUpAt, 0.9*flapPre(o)*1e9); ok {
						return (at - resilUpAt).Millis()
					}
					return -1 // never recovered inside the window
				}},
				{"steadyGbps", func(o *outcome) float64 {
					return avgBetween(o.series[0], resilSteadyAfter, resilFlapWindow) / 1e9
				}},
				{"probeP99ms", func(o *outcome) float64 {
					col := stats.NewFCTCollector()
					for _, f := range o.groups["probe"] {
						if f.Done {
							col.Add(stats.FCTSample{Size: f.Info.Size, FCT: f.FCT(), Cross: true, Start: f.Start})
						}
					}
					v, _ := col.Percentile(nil, 0.99)
					return v.Millis()
				}},
				colFaultDrops,
			},
		},
		{
			name: "blackout", title: "Permanent blackout (sender give-up)",
			abortsExpected: true,
			config: func(cfg Config) spec.Config {
				c := testbed(100*sim.Microsecond, 30*sim.Millisecond)
				c.RTOMax, c.MaxRetrans = 2*sim.Millisecond, 4
				// Lossless mode blackholes differently: retransmissions pile
				// up behind the dead DCI port, PFC backpressure reaches the
				// hosts, and a parked sender (nothing outstanding)
				// intentionally spends no retransmission budget — flows stall
				// forever instead of aborting. Drop-mode isolates the give-up
				// machinery itself.
				c.DisablePFC = true
				// The long haul goes down at 4 ms and never returns.
				c.Fault = &fault.Plan{
					Seed:   cfg.Seed,
					Events: []fault.Event{{At: 4 * sim.Millisecond, Link: "longhaul", Action: fault.LinkDown}},
				}
				return c
			},
			place: placeBlackout,
			cols: []column{
				{"abortedFlows", func(o *outcome) float64 { return float64(o.sum.Aborted) }},
				{"intraDone", func(o *outcome) float64 { return doneIn(o, "intra") }},
				{"crossDone", func(o *outcome) float64 { return doneIn(o, "cross") }},
				colFaultDrops,
			},
		},
	},
	notes: []string{
		fmt.Sprintf("flap timeline: down %v, up %v, degrade(0.5x,+100us) %v-%v, loss %.0e %v-%v",
			resilDownAt, resilUpAt, resilDegradeAt, resilRestoreAt, resilLossProb, resilLossStart, resilLossEnd),
		"recoveryMs is time from link-up until cross goodput first regains 90% of its pre-fault average",
		"expected shape: every algorithm recovers after the flap; blackout aborts exactly the cross flows and leaves intra-DC traffic untouched",
		"blackout runs drop-mode (PFC off): lossless backpressure from a blackholed port parks senders with nothing outstanding, which by design never spends retransmission budget",
	},
}

// placeFlap places the flap cell's traffic: long-lived cross flows in both
// directions, tracked as the cell's goodput series, plus short cross probes,
// one per millisecond, sampling tail latency across every fault regime.
func placeFlap(o *outcome) error {
	group := "cross-" + o.n.Alg.Name
	o.addGroupFlow(group, 0, 2, 1<<30, 500*sim.Microsecond)
	o.addGroupFlow(group, 3, 1, 1<<30, 500*sim.Microsecond)
	o.series = append(o.series, o.trackGroupRate(group))
	for t := sim.Millisecond; t < resilFlapWindow-4*sim.Millisecond; t += sim.Millisecond {
		o.addGroupFlow("probe", 1, 3, 64<<10, t)
	}
	return nil
}

// flapPre is the flap cell's pre-fault cross goodput in Gbps.
func flapPre(o *outcome) float64 {
	return avgBetween(o.series[0], 3*sim.Millisecond, resilDownAt) / 1e9
}

// placeBlackout places the blackout cell's traffic: cross senders must
// exhaust their retransmission budget and abort while intra-DC flows complete
// untouched.
func placeBlackout(o *outcome) error {
	o.addGroupFlow("intra", 0, 1, 2<<20, sim.Millisecond)
	o.addGroupFlow("intra", 2, 3, 2<<20, sim.Millisecond)
	// 16 MB at 25 Gbps needs ~5.4 ms of wire time: both cross flows are
	// mid-transfer when the long haul is cut at 4 ms.
	o.addGroupFlow("cross", 0, 2, 16<<20, 1500*sim.Microsecond)
	o.addGroupFlow("cross", 1, 3, 16<<20, 1500*sim.Microsecond)
	return nil
}

// avgBetween averages series values with timestamps in [lo, hi).
func avgBetween(s *stats.Series, lo, hi sim.Time) float64 {
	var sum float64
	n := 0
	for i, t := range s.T {
		if t >= lo && t < hi {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// firstAtOrAbove returns the first sample time >= from whose value reaches v.
func firstAtOrAbove(s *stats.Series, from sim.Time, v float64) (sim.Time, bool) {
	for i, t := range s.T {
		if t >= from && s.V[i] >= v {
			return t, true
		}
	}
	return 0, false
}
