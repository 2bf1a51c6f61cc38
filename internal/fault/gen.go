package fault

import (
	"math"
	"math/rand"
	"strings"

	"mlcc/internal/sim"
)

// us converts a whole microsecond count to simulation time. The generator
// works exclusively on the microsecond grid so plans survive the JSON
// round-trip (whose schema is microseconds) bit for bit.
func us(x int64) sim.Time { return sim.Time(x) * sim.Microsecond }

// GeneratePlan derives a random fault plan over a network's fault surface —
// its link and node names, as topo.Network.FaultSurface lists them; links
// must not be empty — deterministically: the same inputs always yield the
// same plan. Plans are valid by construction: every target is one of the
// given names ("longhaul", the long-haul fiber, is always a link), every
// feedback host selector is "*" or one of the "host<i>" nodes, windows are
// well-formed, and per-target event sequences alternate sensibly (a blackout
// is always paired with a recovery, a degradation with a restore, a crash
// with a restart) so the network is healthy again before the run's drain.
// Event times are biased toward the long-haul fiber and the first two thirds
// of the horizon; loss and feedback windows always close before the horizon
// so every run can finish its flows.
func GeneratePlan(links, nodes []string, seed int64, horizon sim.Time) *Plan {
	if horizon < sim.Millisecond {
		horizon = sim.Millisecond
	}
	H := int64(horizon / sim.Microsecond) // whole µs, ≥ 1000
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}

	pick := func() string {
		if rng.Float64() < 0.6 {
			return "longhaul" // long-haul bias: the interesting failure domain
		}
		return links[rng.Intn(len(links))]
	}

	// Scripted event groups. A per-link cursor serializes groups that land
	// on the same link, so its schedule alternates properly (down→up,
	// degrade→restore) instead of, say, downing a link twice.
	cursor := map[string]int64{}
	for g, groups := 0, 1+rng.Intn(3); g < groups; g++ {
		link := pick()
		at := cursor[link] + H/10 + rng.Int63n(H/2)
		hold := 1 + rng.Int63n(H/8)
		switch rng.Intn(3) {
		case 0: // blackout + recovery
			p.Events = append(p.Events,
				Event{At: us(at), Link: link, Action: LinkDown},
				Event{At: us(at + hold), Link: link, Action: LinkUp})
		case 1: // degradation + restore
			p.Events = append(p.Events,
				Event{
					At: us(at), Link: link, Action: Degrade,
					RateFactor: 0.25 + 0.7*rng.Float64(),
					ExtraDelay: us(rng.Int63n(201)),
					Jitter:     us(rng.Int63n(21)),
				},
				Event{At: us(at + hold), Link: link, Action: Restore})
		default: // flap burst: two short outages back to back
			half := (hold + 1) / 2
			p.Events = append(p.Events,
				Event{At: us(at), Link: link, Action: LinkDown},
				Event{At: us(at + half), Link: link, Action: LinkUp},
				Event{At: us(at + 2*half), Link: link, Action: LinkDown},
				Event{At: us(at + 3*half), Link: link, Action: LinkUp})
			hold = 3 * half
		}
		cursor[link] = at + hold + 1
	}

	// Node-fault groups: whole-device outages, always paired with recovery
	// inside the horizon so the drain starts on a healthy topology. Hosts
	// crash and restart — in-flight transfers park on the acked prefix and
	// resume — and switches fail and recover, draining their buffers to the
	// ledger. A per-node cursor serializes groups landing on the same device.
	var hosts []string
	for _, node := range nodes {
		if strings.HasPrefix(node, "host") {
			hosts = append(hosts, node)
		}
	}
	ncursor := map[string]int64{}
	for g, groups := 0, rng.Intn(3); g < groups && len(nodes) > 0; g++ {
		node := nodes[rng.Intn(len(nodes))]
		at := ncursor[node] + H/10 + rng.Int63n(H/2)
		hold := 1 + rng.Int63n(H/8)
		down, up := SwitchFail, SwitchRecover
		if strings.HasPrefix(node, "host") {
			down, up = HostCrash, HostRestart
		}
		p.Nodes = append(p.Nodes,
			NodeEvent{At: us(at), Node: node, Action: down},
			NodeEvent{At: us(at + hold), Node: node, Action: up})
		ncursor[node] = at + hold + 1
	}

	// Bernoulli loss rules: small probabilities (heavy loss is what the
	// scripted blackouts are for), windowed inside the horizon.
	for i, n := 0, rng.Intn(3); i < n; i++ {
		start := rng.Int63n(H / 2)
		p.Loss = append(p.Loss, LossRule{
			Link:  pick(),
			Prob:  math.Pow(10, -1-3*rng.Float64()), // 1e-4 .. 1e-1
			Start: us(start),
			End:   us(start + 1 + rng.Int63n(H-start)),
		})
	}

	// Feedback-plane rules: thinning, delay/jitter and INT corruption on
	// "*" or a single host; occasionally a short total blackout (Drop == 1),
	// the watchdog's scenario.
	for i, n := 0, rng.Intn(3); i < n; i++ {
		r := FeedbackRule{
			Host:    "*",
			Kinds:   FBKind(rng.Intn(int(fbAllKinds) + 1)),
			Drop:    0.5 * rng.Float64(),
			Corrupt: 0.5 * rng.Float64(),
			Delay:   us(rng.Int63n(51)),
			Jitter:  us(rng.Int63n(21)),
			Modes:   CorruptMode(rng.Intn(int(corruptAllModes) + 1)),
		}
		if rng.Float64() < 0.5 && len(hosts) > 0 {
			r.Host = hosts[rng.Intn(len(hosts))]
		}
		start := rng.Int63n(H / 2)
		r.Start = us(start)
		r.End = us(start + 1 + rng.Int63n(H-start))
		if rng.Float64() < 0.25 {
			r.Drop = 1 // total blackout — keep it short enough to recover from
			r.End = us(start + 1 + rng.Int63n(H/8))
		}
		p.Feedback = append(p.Feedback, r)
	}
	return p
}
