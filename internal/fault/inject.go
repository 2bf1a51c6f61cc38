package fault

import (
	"fmt"
	"math/rand"

	"mlcc/internal/link"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// Link names the two port-ends of one full-duplex link. A and B are the two
// transmit directions; fault actions always apply to the pair.
type Link struct {
	Name string
	A, B *link.Port
}

// resolver maps a plan's symbolic link names onto built ports; topologies
// provide one (topo.Network.linkByName).
type resolver func(name string) (Link, error)

// FaultNodeID maps a managed link's resolution index to the flight-recorder
// node id used for its fault events. The ids are negative — a dedicated
// namespace that can never collide with real topology node ids (hosts are
// 1+index, switches sit at positive per-tier bases) in merged traces.
// topo.Network.NodeName renders them as "fault:<linkname>". idx is below
// maxLinks, so the id fits a flight record's int16 Node.
func FaultNodeID(idx int) int16 { return int16(-1 - idx) }

// maxLinks bounds the links one plan may name: FaultNodeID(maxLinks-1) is
// the most negative int16.
const maxLinks = 1 << 15

// Injector is an applied Plan: scripted events are scheduled on the engine
// owning each port and loss rules are installed as per-direction port fault
// hooks. It keeps no counters: every frame it destroys and every event it
// fires is counted by the port, host or switch it hits (see topo.Summary).
// Its only per-engine state is the flight recorder each engine writes; the
// exported readers must be called with the engines quiescent (between Run
// windows, from quiescent hooks, or after the run).
type Injector struct {
	plan *Plan

	links  []*linkState // resolution order — plan order, never map order
	byName map[string]*linkState
	nodes  map[string]*NodeHooks

	// frOf maps each engine of the build to its shard's flight recorder
	// (nil without one).
	frOf map[*sim.Engine]*metrics.FlightRecorder

	// fbMatched[i] records whether feedback rule i bound to at least one
	// host (see FeedbackFilterFor / FeedbackResolved).
	fbMatched []bool
}

// linkState is one managed link; dirs[0] transmits from port A, dirs[1]
// from port B.
type linkState struct {
	Link
	idx  int
	dirs [2]dirState
}

// dirState is one transmit direction of a managed link: its port, the flight
// recorder of the shard that owns the port's engine, the direction's own
// loss-rule and jitter PRNG streams, and the fault hooks installed on the
// port. Per-direction streams are what make sharded runs byte-identical to
// single-engine runs: each direction draws independently regardless of which
// engine hosts it.
type dirState struct {
	port  *link.Port
	fr    *metrics.FlightRecorder
	rules []*ruleState
	jrng  *rand.Rand
	down  bool
	hooks link.FaultHooks
}

type ruleState struct {
	LossRule
	rng *rand.Rand
}

// Apply validates plan, resolves its links and nodes and installs it: every
// scripted link event is scheduled per direction on the engine owning that
// direction's port (a long-haul event fires on both shards at the same
// absolute time), node events are scheduled per engine slice the node
// resolver reports, and loss rules become per-direction port fault hooks.
// engines lists the build's engines (length 1 on single-engine builds); every
// resolved port must live on one of them. resolveNode may be nil when the
// plan has no node events; tel may be nil. Applying an empty plan returns
// (nil, nil) and leaves the network untouched.
func Apply(plan *Plan, resolve resolver, resolveNode nodeResolver, engines []*sim.Engine, tel *metrics.Telemetry) (*Injector, error) {
	if plan.empty() {
		return nil, nil
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if len(engines) == 0 {
		return nil, fmt.Errorf("fault: Apply with no engines")
	}
	inj := &Injector{plan: plan,
		byName:    map[string]*linkState{},
		nodes:     map[string]*NodeHooks{},
		frOf:      map[*sim.Engine]*metrics.FlightRecorder{},
		fbMatched: make([]bool, len(plan.Feedback)),
	}
	frs := tel.ShardRecorders(len(engines))
	for i, eng := range engines {
		inj.frOf[eng] = nil
		if frs != nil {
			inj.frOf[eng] = frs[i]
		}
	}

	// Resolve links in plan order (events, then loss rules) so stream
	// seeding never depends on map iteration. The two jitter streams keep
	// their historical seeds (direction A and B).
	get := func(name string) (*linkState, error) {
		if ls, ok := inj.byName[name]; ok {
			return ls, nil
		}
		l, err := resolve(name)
		if err != nil {
			return nil, err
		}
		if l.A == nil || l.B == nil {
			return nil, fmt.Errorf("fault: link %q resolved without both ports", name)
		}
		if len(inj.links) == maxLinks {
			return nil, fmt.Errorf("fault: plan names more than %d links", maxLinks)
		}
		ls := &linkState{Link: l, idx: len(inj.links)}
		for d, port := range [2]*link.Port{l.A, l.B} {
			fr, ok := inj.frOf[port.Eng]
			if !ok {
				return nil, fmt.Errorf("fault: link %q direction %d is on an engine outside the build", name, d)
			}
			ls.dirs[d].port = port
			ls.dirs[d].fr = fr
		}
		inj.links = append(inj.links, ls)
		inj.byName[name] = ls
		return ls, nil
	}
	for i := range plan.Events {
		ev := plan.Events[i]
		ls, err := get(ev.Link)
		if err != nil {
			return nil, fmt.Errorf("fault: event %d: %w", i, err)
		}
		// One scheduled event per direction, on the engine owning that
		// direction's port, at the same absolute time. Build-time
		// scheduling gives these minimal insertion sequence numbers, so at
		// equal timestamps they order before any runtime-armed event on
		// every engine — in single-engine and sharded builds alike.
		for d := 0; d < 2; d++ {
			d := d
			ds := &ls.dirs[d]
			// A jitter stream is drawn from only under a jittered Degrade,
			// so only such a plan seeds one (its seed, and so its draws,
			// are the same whichever event comes first).
			if ev.Action == Degrade && ev.Jitter > 0 && ds.jrng == nil {
				ds.jrng = rand.New(rand.NewSource(plan.Seed ^ stableHash(ls.Name) ^ (0x6a177a61 + int64(d))))
			}
			ds.port.Eng.At(ev.At, func() { inj.fire(ls, d, ev) })
		}
	}
	if err := inj.applyNodes(resolveNode); err != nil {
		return nil, err
	}
	for i := range plan.Loss {
		r := plan.Loss[i]
		ls, err := get(r.Link)
		if err != nil {
			return nil, fmt.Errorf("fault: loss rule %d: %w", i, err)
		}
		// Per-direction streams: direction A keeps the historical rule
		// seed, direction B folds in the direction bit. Each direction
		// draws only for its own frames, so a shard never consumes another
		// shard's randomness. A rule that cannot fire draws nothing, so it
		// gets no stream and no hook.
		if r.Prob <= 0 {
			continue
		}
		for d := 0; d < 2; d++ {
			rs := &ruleState{LossRule: r}
			rs.rng = rand.New(rand.NewSource(plan.Seed ^ stableHash(r.Link) ^ int64(i+1)<<32 ^ int64(d)))
			ls.dirs[d].rules = append(ls.dirs[d].rules, rs)
		}
	}

	// Hook every managed port so every fault discard — transmitter-side
	// and cut-at-arrival alike — is recorded on the shard that observed it,
	// and a direction with a loss rule that can fire runs it. A port
	// without a corruption hook keeps deferring its completions (see
	// link.Port.pullNext). The ports count the discards; the link's one
	// instrument, fault.link.<name>.drops, sums its two ports' transmitter
	// discards (FaultDrops) and cuts at arrival (CutDrops), read only at
	// quiescent pumps and post-run snapshots.
	reg := tel.Registry()
	for _, ls := range inj.links {
		ls := ls
		for d := range ls.dirs {
			d := d
			ds := &ls.dirs[d]
			ds.hooks.OnDrop = func(p *pkt.Packet, cut bool) { inj.onDrop(ls, d, p, cut) }
			if len(ds.rules) > 0 {
				ds.hooks.Corrupt = func(p *pkt.Packet) bool { return inj.corrupt(ls, d, p) }
			}
			ds.port.SetFaultHooks(&ds.hooks)
		}
		if reg != nil {
			a, b := ls.A, ls.B
			reg.CounterFunc("fault.link."+ls.Name+".drops",
				func() int64 { return a.FaultDrops + b.FaultDrops + a.CutDrops + b.CutDrops })
		}
	}
	return inj, nil
}

// fire executes one scripted event on one direction of a link, on the
// engine that owns it. Direction 0 records the flight-recorder state event,
// so a both-direction event is recorded once.
func (inj *Injector) fire(ls *linkState, d int, ev Event) {
	ds := &ls.dirs[d]
	switch ev.Action {
	case LinkDown:
		ds.down = true
		ds.port.SetDown(true)
	case LinkUp:
		ds.down = false
		ds.port.SetDown(false)
	case Degrade:
		f := ev.RateFactor
		if f == 0 {
			f = 1 // delay-only degradation
		}
		ds.port.SetImpairment(f, ev.ExtraDelay, ev.Jitter, ds.jrng)
	case Restore:
		ds.port.SetImpairment(1, 0, 0, nil)
	}
	if d == 0 && ds.fr != nil {
		ds.fr.Record(metrics.Event{T: ds.port.Eng.Now(), Kind: metrics.EvLinkState,
			Node: FaultNodeID(ls.idx), Port: -1, Val: int64(ev.Action)})
	}
}

// corrupt implements the Bernoulli droppers for one direction: one draw per
// open rule per data frame, from that direction's own stream. Rules with a
// closed window draw nothing, and zero-probability rules are never
// installed, so vacuous rules cannot perturb the run.
func (inj *Injector) corrupt(ls *linkState, d int, p *pkt.Packet) bool {
	ds := &ls.dirs[d]
	now := ds.port.Eng.Now()
	for _, r := range ds.rules {
		if now < r.Start || (r.End != 0 && now >= r.End) {
			continue
		}
		if r.rng.Float64() < r.Prob {
			return true
		}
	}
	return false
}

// onDrop flight-records every frame the fault layer destroys on a managed
// port (the port already counted it and will return it to the pool). d is
// the direction of the port the hook fired on; for a cut the frame was
// destroyed at its receiver, so the transmit direction that carried it is
// the opposite one — recorded events keep Port = transmit direction either
// way.
func (inj *Injector) onDrop(ls *linkState, d int, p *pkt.Packet, cut bool) {
	ds := &ls.dirs[d]
	if ds.fr == nil {
		return
	}
	txDir := int8(d)
	if cut {
		txDir = int8(1 - d)
	}
	ds.fr.Record(metrics.Event{T: ds.port.Eng.Now(), Kind: metrics.EvFaultDrop,
		Node: FaultNodeID(ls.idx), Port: txDir, Flow: int32(p.Flow), Val: int64(p.Size)})
}

// Down reports whether the named link is currently admin-down. Nil-safe;
// quiescent-read only (the flag is owned by the engine of direction A).
func (inj *Injector) Down(name string) bool {
	if inj == nil {
		return false
	}
	ls, ok := inj.byName[name]
	return ok && ls.dirs[0].down
}

// LinkNameAt returns the name of the i-th managed link (the inverse of
// FaultNodeID's index), or "" when out of range. Nil-safe.
func (inj *Injector) LinkNameAt(i int) string {
	if inj == nil || i < 0 || i >= len(inj.links) {
		return ""
	}
	return inj.links[i].Name
}
