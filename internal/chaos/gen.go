// Package chaos generates fault plans: a seeded random generator produces
// valid-by-construction plans over a topology's named links and devices.
// Generation is a pure function of (topology, seed, horizon), so a seed
// names its plan completely. internal/exp's FuzzChaosCell runs the plans
// through the experiment matrix runner at shards 1 and 2.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mlcc/internal/fault"
	"mlcc/internal/sim"
)

// Topo names a topology the generator can target and enumerates the fault
// surface a plan may touch: resolvable link names (Links[0] is always the
// long-haul fiber) and the host count bounding "host<i>" feedback selectors.
// FuzzChaosCell builds the matching network from the same descriptor, so a
// generated plan always resolves.
// Nodes enumerates the whole-device fault surface: names resolvable by
// topo.NodeHooksByName ("host<i>" crash/restart targets, "leaf<i>" /
// "spine<i>" / "dci<i>" failure/recovery targets).
type Topo struct {
	Name     string
	Dumbbell bool
	Hosts    int
	Links    []string
	Nodes    []string
}

// DumbbellTopo describes the §4.6 testbed dumbbell at chaos scale: two hosts
// per side, so four host links, one ToR uplink per side (port index ==
// HostsPerLeaf) and the long-haul fiber.
func DumbbellTopo() Topo {
	return Topo{
		Name:     "dumbbell",
		Dumbbell: true,
		Hosts:    4,
		Links: []string{
			"longhaul",
			"host0", "host1", "host2", "host3",
			"leaf0:2", "leaf1:2",
		},
		Nodes: []string{
			"host0", "host1", "host2", "host3",
			"leaf0", "leaf1", "dci0", "dci1",
		},
	}
}

// TwoDCTopo describes a scaled-down spine-leaf two-DC fabric (2 spines, 2
// leaves, 2 hosts per leaf per DC → 8 hosts). Leaf uplink ports occupy
// [HostsPerLeaf, HostsPerLeaf+SpinesPerDC), i.e. ports 2 and 3.
func TwoDCTopo() Topo {
	t := Topo{
		Name:  "twodc",
		Hosts: 8,
		Links: []string{"longhaul"},
	}
	for i := 0; i < t.Hosts; i++ {
		t.Links = append(t.Links, fmt.Sprintf("host%d", i))
		t.Nodes = append(t.Nodes, fmt.Sprintf("host%d", i))
	}
	for leaf := 0; leaf < 4; leaf++ {
		for port := 2; port < 4; port++ {
			t.Links = append(t.Links, fmt.Sprintf("leaf%d:%d", leaf, port))
		}
		t.Nodes = append(t.Nodes, fmt.Sprintf("leaf%d", leaf))
	}
	for spine := 0; spine < 4; spine++ {
		t.Nodes = append(t.Nodes, fmt.Sprintf("spine%d", spine))
	}
	t.Nodes = append(t.Nodes, "dci0", "dci1")
	return t
}

// Topos returns the chaos topology set.
func Topos() []Topo { return []Topo{DumbbellTopo(), TwoDCTopo()} }

// nameSalt decorrelates plans for the same seed across topologies.
func nameSalt(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h = (h ^ int64(c)) * 1099511628211
	}
	return h
}

// us converts a whole microsecond count to simulation time. The generator
// works exclusively on the microsecond grid so plans survive the JSON
// round-trip (whose schema is microseconds) bit for bit.
func us(x int64) sim.Time { return sim.Time(x) * sim.Microsecond }

// GeneratePlan derives a fault plan from (topology, seed, horizon),
// deterministically: the same inputs always yield the same plan. Plans are
// valid by construction — every link name resolves on tp's network, every
// host selector is in range, windows are well-formed, and per-link event
// sequences alternate sensibly (a blackout is always paired with a recovery,
// a degradation with a restore) so the network is healthy again before the
// run's drain. Event times are biased toward the long-haul fiber and the
// first two thirds of the horizon; loss and feedback windows always close
// before the horizon so every cell can finish its flows.
func GeneratePlan(tp Topo, seed int64, horizon sim.Time) *fault.Plan {
	if horizon < sim.Millisecond {
		horizon = sim.Millisecond
	}
	H := int64(horizon / sim.Microsecond) // whole µs, ≥ 1000
	rng := rand.New(rand.NewSource(seed ^ nameSalt(tp.Name)))
	p := &fault.Plan{Seed: seed}

	pick := func() string {
		if rng.Float64() < 0.6 {
			return tp.Links[0] // long-haul bias: the interesting failure domain
		}
		return tp.Links[rng.Intn(len(tp.Links))]
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
				fault.Event{At: us(at), Link: link, Action: fault.LinkDown},
				fault.Event{At: us(at + hold), Link: link, Action: fault.LinkUp})
		case 1: // degradation + restore
			p.Events = append(p.Events,
				fault.Event{
					At: us(at), Link: link, Action: fault.Degrade,
					RateFactor: 0.25 + 0.7*rng.Float64(),
					ExtraDelay: us(rng.Int63n(201)),
					Jitter:     us(rng.Int63n(21)),
				},
				fault.Event{At: us(at + hold), Link: link, Action: fault.Restore})
		default: // flap burst: two short outages back to back
			half := (hold + 1) / 2
			p.Events = append(p.Events,
				fault.Event{At: us(at), Link: link, Action: fault.LinkDown},
				fault.Event{At: us(at + half), Link: link, Action: fault.LinkUp},
				fault.Event{At: us(at + 2*half), Link: link, Action: fault.LinkDown},
				fault.Event{At: us(at + 3*half), Link: link, Action: fault.LinkUp})
			hold = 3 * half
		}
		cursor[link] = at + hold + 1
	}

	// Node-fault groups: whole-device outages, always paired with recovery
	// inside the horizon so the drain starts on a healthy topology
	// (FuzzChaosCell pins "no node still down" as an invariant). Hosts crash
	// and restart — in-flight transfers park on the acked prefix and resume —
	// and switches fail and recover, draining their buffers to the ledger. A
	// per-node cursor serializes groups landing on the same device.
	ncursor := map[string]int64{}
	for g, groups := 0, rng.Intn(3); g < groups && len(tp.Nodes) > 0; g++ {
		node := tp.Nodes[rng.Intn(len(tp.Nodes))]
		at := ncursor[node] + H/10 + rng.Int63n(H/2)
		hold := 1 + rng.Int63n(H/8)
		down, up := fault.SwitchFail, fault.SwitchRecover
		if strings.HasPrefix(node, "host") {
			down, up = fault.HostCrash, fault.HostRestart
		}
		p.Nodes = append(p.Nodes,
			fault.NodeEvent{At: us(at), Node: node, Action: down},
			fault.NodeEvent{At: us(at + hold), Node: node, Action: up})
		ncursor[node] = at + hold + 1
	}

	// Bernoulli loss rules: small probabilities (heavy loss is what the
	// scripted blackouts are for), windowed inside the horizon.
	for i, n := 0, rng.Intn(3); i < n; i++ {
		start := rng.Int63n(H / 2)
		p.Loss = append(p.Loss, fault.LossRule{
			Link:  pick(),
			Prob:  math.Pow(10, -1-3*rng.Float64()), // 1e-4 .. 1e-1
			Start: us(start),
			End:   us(start + 1 + rng.Int63n(H-start)),
		})
	}

	// Feedback-plane rules: thinning, delay/jitter and INT corruption on
	// "*" or a single in-range host; occasionally a short total blackout
	// (Drop == 1), the watchdog's scenario.
	for i, n := 0, rng.Intn(3); i < n; i++ {
		r := fault.FeedbackRule{
			Host:    "*",
			Kinds:   fault.FBKind(rng.Intn(int(fault.FBAllKinds) + 1)),
			Drop:    0.5 * rng.Float64(),
			Corrupt: 0.5 * rng.Float64(),
			Delay:   us(rng.Int63n(51)),
			Jitter:  us(rng.Int63n(21)),
			Modes:   fault.CorruptMode(rng.Intn(int(fault.CorruptAllModes) + 1)),
		}
		if rng.Float64() < 0.5 {
			r.Host = fmt.Sprintf("host%d", rng.Intn(tp.Hosts))
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
