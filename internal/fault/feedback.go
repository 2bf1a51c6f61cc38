package fault

import (
	"fmt"
	"math/rand"

	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// FeedbackFilter inspects one feedback frame (ACK/CNP/Switch-INT) at a
// sender's feedback ingress and returns its fate: destroyed, or delivered
// after an extra delay (0 = immediately). The filter may mutate the frame's
// INT stack in place, and reports how many corruptions it applied (one per
// rule that fired). Hosts call it from the engine goroutine and count every
// outcome.
type FeedbackFilter func(now sim.Time, p *pkt.Packet) (drop bool, delay sim.Time, corrupts int)

// fbApplied is one feedback rule bound to one host, with its own PRNG stream
// so rules and hosts stay decorrelated and a run is bit-reproducible.
type fbApplied struct {
	rule  *FeedbackRule
	rng   *rand.Rand
	kinds FBKind
	modes []CorruptMode // enabled modes in declaration order, for Intn picks
}

// fbKindOf maps a packet kind to its FBKind bit (0 for non-feedback frames).
func fbKindOf(k pkt.Kind) FBKind {
	switch k {
	case pkt.Ack:
		return FBAck
	case pkt.CNP:
		return FBCNP
	case pkt.SwitchINT:
		return FBSwitchINT
	default:
		return 0
	}
}

// FeedbackFilterFor binds the plan's feedback rules matching the named host
// (topology vocabulary: "host<i>") and returns the filter the host should
// install, or nil when no rule matches. node is the host's id, used for
// flight-recorder attribution; eng is the engine the host runs on, so the
// filter records into that shard's flight recorder only. Each
// (rule, host) pair gets its own seeded PRNG stream — per host, not per
// shard, so sharded runs replay the exact same draws as single-engine
// runs; a vacuous rule (no drop, no corruption, no delay) binds without
// one and draws nothing, so it cannot perturb the run.
func (inj *Injector) FeedbackFilterFor(name string, node pkt.NodeID, eng *sim.Engine) FeedbackFilter {
	if inj == nil || inj.plan == nil {
		return nil
	}
	fr, ok := inj.frOf[eng]
	if !ok {
		panic(fmt.Sprintf("fault: FeedbackFilterFor(%q) with an engine outside the build", name))
	}
	var applied []*fbApplied
	for i := range inj.plan.Feedback {
		r := &inj.plan.Feedback[i]
		if r.Host != "" && r.Host != "*" && r.Host != name {
			continue
		}
		inj.fbMatched[i] = true
		a := &fbApplied{rule: r, kinds: r.Kinds}
		if a.kinds == 0 {
			a.kinds = fbAllKinds
		}
		if !r.vacuous() {
			a.rng = rand.New(rand.NewSource(inj.plan.Seed ^ stableHash("fb/"+name) ^ int64(i+1)<<32))
		}
		modes := r.Modes
		if modes == 0 {
			modes = corruptAllModes
		}
		for _, m := range []CorruptMode{corruptTruncate, corruptStaleTS, corruptGarbage} {
			if modes&m != 0 {
				a.modes = append(a.modes, m)
			}
		}
		applied = append(applied, a)
	}
	if len(applied) == 0 {
		return nil
	}
	id := int16(node)
	return func(now sim.Time, p *pkt.Packet) (bool, sim.Time, int) {
		return filterFeedback(fr, applied, id, now, p)
	}
}

// FeedbackResolved returns an error naming any host-specific feedback rule
// that bound to no host — a typo'd selector silently doing nothing is the
// same class of bug as an unresolvable link name.
func (inj *Injector) FeedbackResolved() error {
	if inj == nil {
		return nil
	}
	for i, matched := range inj.fbMatched {
		if !matched {
			return fmt.Errorf("fault: feedback rule %d: host %q matched no host", i, inj.plan.Feedback[i].Host)
		}
	}
	return nil
}

// filterFeedback runs every bound rule over one frame. Draw order per rule is
// fixed (drop, then corrupt, then delay) so a plan replays identically; a
// closed window or vacuous rule draws nothing.
func filterFeedback(fr *metrics.FlightRecorder, rules []*fbApplied, node int16, now sim.Time, p *pkt.Packet) (bool, sim.Time, int) {
	kind := fbKindOf(p.Kind)
	if kind == 0 {
		return false, 0, 0
	}
	var delay sim.Time
	corrupts := 0
	for _, a := range rules {
		r := a.rule
		if a.rng == nil || a.kinds&kind == 0 || now < r.Start || (r.End != 0 && now >= r.End) {
			continue
		}
		if r.Drop > 0 && a.rng.Float64() < r.Drop {
			if fr != nil {
				fr.Record(metrics.Event{T: now, Kind: metrics.EvFBDrop,
					Node: node, Port: -1, Flow: int32(p.Flow), Val: int64(p.Kind)})
			}
			return true, 0, corrupts
		}
		if r.Corrupt > 0 && len(p.Hops) > 0 && a.rng.Float64() < r.Corrupt {
			corruptINT(fr, a, node, now, p)
			corrupts++
		}
		if r.Delay > 0 || r.Jitter > 0 {
			d := r.Delay
			if r.Jitter > 0 {
				d += sim.Time(a.rng.Int63n(int64(r.Jitter) + 1))
			}
			if d > 0 {
				delay += d
			}
		}
	}
	if delay > 0 && fr != nil {
		fr.Record(metrics.Event{T: now, Kind: metrics.EvFBDelay,
			Node: node, Port: -1, Flow: int32(p.Flow), Val: int64(delay)})
	}
	return false, delay, corrupts
}

// corruptINT damages the frame's INT stack in one of the rule's enabled
// modes. The damage models real telemetry corruption classes: a transit
// device stripping records (truncation), a hop echoing a stale register
// (regressed timestamp), and bit rot in the metadata fields (garbage).
// Hardened consumers must survive all three without folding them in.
func corruptINT(fr *metrics.FlightRecorder, a *fbApplied, node int16, now sim.Time, p *pkt.Packet) {
	mode := a.modes[a.rng.Intn(len(a.modes))]
	switch mode {
	case corruptTruncate:
		cut := 1 + a.rng.Intn(len(p.Hops))
		p.Hops = p.Hops[:len(p.Hops)-cut]
	case corruptStaleTS:
		i := a.rng.Intn(len(p.Hops))
		p.Hops[i].TS -= sim.Time(1 + a.rng.Int63n(int64(10*sim.Millisecond)))
	case corruptGarbage:
		i := a.rng.Intn(len(p.Hops))
		switch a.rng.Intn(3) {
		case 0:
			p.Hops[i].QLen = -1 - a.rng.Int63n(1<<40)
		case 1:
			p.Hops[i].TxBytes -= 1 + a.rng.Int63n(1<<40)
		case 2:
			p.Hops[i].Band = -p.Hops[i].Band // zero stays zero: still invalid
		}
	}
	if fr != nil {
		fr.Record(metrics.Event{T: now, Kind: metrics.EvFBCorrupt,
			Node: node, Port: -1, Flow: int32(p.Flow), Val: int64(mode)})
	}
}
