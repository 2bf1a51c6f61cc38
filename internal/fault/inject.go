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
// topo.Network.NodeName renders them as "fault:<linkname>".
func FaultNodeID(idx int) int32 { return int32(-1 - idx) }

// Injector is an applied Plan: scripted events are scheduled on the engine
// owning each port and loss rules are installed as per-direction port fault
// hooks. All mutable state is partitioned per shard (one shardState per
// engine), so each engine goroutine touches only its own counters and PRNG
// streams; Counts and the other exported readers aggregate across shards and
// must only be called with the engines quiescent (between Run windows, from
// quiescent hooks, or after the run).
type Injector struct {
	plan *Plan

	links  []*linkState // resolution order — plan order, never map order
	byName map[string]*linkState
	nodes  map[string]*NodeHooks

	shards []*shardState
	byEng  map[*sim.Engine]*shardState

	// fbMatched[i] records whether feedback rule i bound to at least one
	// host (see FeedbackFilterFor / FeedbackResolved).
	fbMatched []bool
}

// Counts is what the fault plane did to a run. Each shard increments its own
// Counts in place; Injector.Counts sums them.
type Counts struct {
	LossDrops     int64 // frames destroyed by Bernoulli loss rules
	DownDrops     int64 // frames destroyed because their link was down (offered, serialized or cut in flight)
	DataDrops     int64 // data-frame subset of all fault drops (conservation checks)
	DownEvents    int64 // scripted link-down events fired
	DegradeEvents int64 // scripted degrade events fired

	// Drops is every frame the fault layer destroyed, summed over the
	// managed ports (transmitter discards plus in-flight cuts); only
	// Injector.Counts fills it.
	Drops int64

	// Feedback plane (registered as fault.fb.*).
	FBDrops    int64 // feedback frames destroyed at host ingress
	FBDelays   int64 // feedback frames deferred
	FBCorrupts int64 // INT stacks corrupted

	// Node plane (registered as fault.node.*): scripted events fired.
	NodeCrashes    int64
	NodeRestarts   int64
	SwitchFails    int64
	SwitchRecovers int64
}

// shardState holds one engine's slice of the injector: its flight recorder
// ring and the Counts its ports, feedback filters and node events
// increment. Keeping these per shard makes the hot-path increments
// single-goroutine.
type shardState struct {
	eng *sim.Engine
	fr  *metrics.FlightRecorder
	Counts
}

// linkState is one managed link; dirs[0] transmits from port A, dirs[1]
// from port B.
type linkState struct {
	Link
	idx  int
	dirs [2]dirState
}

// dirState is one transmit direction of a managed link: its port, the shard
// that owns the port's engine, the direction's own loss-rule and jitter
// PRNG streams, and the fault hooks installed on the port. Per-direction
// streams are what make sharded runs byte-identical to single-engine runs:
// each direction draws independently regardless of which engine hosts it.
type dirState struct {
	port  *link.Port
	sc    *shardState
	rules []*ruleState
	jrng  *rand.Rand
	down  bool
	hooks link.FaultHooks
}

type ruleState struct {
	LossRule
	rng   *rand.Rand
	drops int64
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
		byEng:     map[*sim.Engine]*shardState{},
		fbMatched: make([]bool, len(plan.Feedback)),
	}
	frs := tel.ShardRecorders(len(engines))
	for i, eng := range engines {
		sc := &shardState{eng: eng}
		if frs != nil {
			sc.fr = frs[i]
		}
		inj.shards = append(inj.shards, sc)
		inj.byEng[eng] = sc
	}

	// Resolve links in plan order (events, then loss rules) so stream
	// seeding and counter layout never depend on map iteration. The two
	// jitter streams keep their historical seeds (direction A and B).
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
		ls := &linkState{Link: l, idx: len(inj.links)}
		for d, port := range [2]*link.Port{l.A, l.B} {
			sc, ok := inj.byEng[port.Eng]
			if !ok {
				return nil, fmt.Errorf("fault: link %q direction %d is on an engine outside the build", name, d)
			}
			ls.dirs[d].port = port
			ls.dirs[d].sc = sc
			ls.dirs[d].jrng = rand.New(rand.NewSource(plan.Seed ^ stableHash(name) ^ (0x6a177a61 + int64(d))))
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
			ls.dirs[d].port.Eng.At(ev.At, func() { inj.fire(ls, d, ev) })
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
		// shard's randomness.
		for d := 0; d < 2; d++ {
			rs := &ruleState{LossRule: r}
			rs.rng = rand.New(rand.NewSource(plan.Seed ^ stableHash(r.Link) ^ int64(i+1)<<32 ^ int64(d)))
			ls.dirs[d].rules = append(ls.dirs[d].rules, rs)
		}
	}

	// Hook every managed port so corruption rules run and every fault
	// discard — transmitter-side and cut-at-arrival alike — is counted and
	// recorded on the shard that observed it.
	for _, ls := range inj.links {
		ls := ls
		for d := range ls.dirs {
			d := d
			ls.dirs[d].hooks = link.FaultHooks{
				Corrupt: func(p *pkt.Packet) bool { return inj.corrupt(ls, d, p) },
				OnDrop:  func(p *pkt.Packet, reason link.DropReason) { inj.onDrop(ls, d, p, reason) },
			}
			ls.dirs[d].port.SetFaultHooks(&ls.dirs[d].hooks)
		}
	}
	inj.register(tel.Registry())
	return inj, nil
}

// fire executes one scripted event on one direction of a link, on the
// engine that owns it. Direction 0 carries the link-level bookkeeping
// (event counters, flight-recorder state events) so a both-direction event
// is counted once.
func (inj *Injector) fire(ls *linkState, d int, ev Event) {
	ds := &ls.dirs[d]
	switch ev.Action {
	case LinkDown:
		ds.down = true
		if d == 0 {
			ds.sc.DownEvents++
		}
		ds.port.SetDown(true)
	case LinkUp:
		ds.down = false
		ds.port.SetDown(false)
	case Degrade:
		f := ev.RateFactor
		if f == 0 {
			f = 1 // delay-only degradation
		}
		if d == 0 {
			ds.sc.DegradeEvents++
		}
		ds.port.SetImpairment(f, ev.ExtraDelay, ev.Jitter, ds.jrng)
	case Restore:
		ds.port.SetImpairment(1, 0, 0, nil)
	}
	if d == 0 && ds.sc.fr != nil {
		ds.sc.fr.Record(metrics.Event{T: ds.sc.eng.Now(), Kind: metrics.EvLinkState,
			Node: FaultNodeID(ls.idx), Port: -1, Val: int64(ev.Action)})
	}
}

// corrupt implements the Bernoulli droppers for one direction: one draw per
// open rule per data frame, from that direction's own stream. Rules with a
// closed window or zero probability draw nothing, so vacuous rules cannot
// perturb the run.
func (inj *Injector) corrupt(ls *linkState, d int, p *pkt.Packet) bool {
	ds := &ls.dirs[d]
	now := ds.sc.eng.Now()
	for _, r := range ds.rules {
		if r.Prob <= 0 || now < r.Start || (r.End != 0 && now >= r.End) {
			continue
		}
		if r.rng.Float64() < r.Prob {
			r.drops++
			ds.sc.LossDrops++
			return true
		}
	}
	return false
}

// onDrop observes every frame the fault layer destroys on a managed port
// (the port already counted it and will return it to the pool). d is the
// direction of the port the hook fired on; for a cut the frame was
// destroyed at its receiver, so the transmit direction that carried it is
// the opposite one — recorded events keep Port = transmit direction either
// way.
func (inj *Injector) onDrop(ls *linkState, d int, p *pkt.Packet, reason link.DropReason) {
	ds := &ls.dirs[d]
	txDir := int32(d)
	if reason == link.DropCut {
		txDir = int32(1 - d)
	}
	if reason != link.DropCorrupt {
		ds.sc.DownDrops++
	}
	if p.Kind == pkt.Data {
		ds.sc.DataDrops++
	}
	if ds.sc.fr != nil {
		ds.sc.fr.Record(metrics.Event{T: ds.sc.eng.Now(), Kind: metrics.EvFaultDrop,
			Node: FaultNodeID(ls.idx), Port: txDir, Flow: int32(p.Flow), Val: int64(p.Size)})
	}
}

func (inj *Injector) register(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	// CounterFuncs are evaluated only at quiescent pumps and post-run
	// snapshots, the safe points for cross-shard aggregation.
	reg.CounterFunc("fault.loss_drops", func() int64 { return inj.Counts().LossDrops })
	reg.CounterFunc("fault.down_drops", func() int64 { return inj.Counts().DownDrops })
	reg.CounterFunc("fault.data_drops", func() int64 { return inj.Counts().DataDrops })
	reg.CounterFunc("fault.link_down_events", func() int64 { return inj.Counts().DownEvents })
	reg.CounterFunc("fault.degrade_events", func() int64 { return inj.Counts().DegradeEvents })
	if len(inj.plan.Feedback) > 0 {
		reg.CounterFunc("fault.fb.drops", func() int64 { return inj.Counts().FBDrops })
		reg.CounterFunc("fault.fb.delays", func() int64 { return inj.Counts().FBDelays })
		reg.CounterFunc("fault.fb.corrupts", func() int64 { return inj.Counts().FBCorrupts })
	}
	if len(inj.plan.Nodes) > 0 {
		reg.CounterFunc("fault.node.crashes", func() int64 { return inj.Counts().NodeCrashes })
		reg.CounterFunc("fault.node.restarts", func() int64 { return inj.Counts().NodeRestarts })
		reg.CounterFunc("fault.node.switch_fails", func() int64 { return inj.Counts().SwitchFails })
		reg.CounterFunc("fault.node.switch_recovers", func() int64 { return inj.Counts().SwitchRecovers })
	}
	for _, ls := range inj.links {
		ls := ls
		reg.CounterFunc("fault.link."+ls.Name+".drops",
			func() int64 { return ls.drops() })
	}
}

// drops totals every frame the fault layer destroyed on this link:
// transmitter-side discards (FaultDrops) plus in-flight cuts destroyed at
// the receiving ports (CutDrops).
func (ls *linkState) drops() int64 {
	return ls.A.FaultDrops + ls.B.FaultDrops + ls.A.CutDrops + ls.B.CutDrops
}

// Counts sums every shard's Counts and fills Drops from the managed ports.
// Nil-safe: a nil injector (empty plan) reports the zero Counts.
// Quiescent-read only.
func (inj *Injector) Counts() Counts {
	var c Counts
	if inj == nil {
		return c
	}
	for _, sc := range inj.shards {
		s := &sc.Counts
		c.LossDrops += s.LossDrops
		c.DownDrops += s.DownDrops
		c.DataDrops += s.DataDrops
		c.DownEvents += s.DownEvents
		c.DegradeEvents += s.DegradeEvents
		c.FBDrops += s.FBDrops
		c.FBDelays += s.FBDelays
		c.FBCorrupts += s.FBCorrupts
		c.NodeCrashes += s.NodeCrashes
		c.NodeRestarts += s.NodeRestarts
		c.SwitchFails += s.SwitchFails
		c.SwitchRecovers += s.SwitchRecovers
	}
	for _, ls := range inj.links {
		c.Drops += ls.drops()
	}
	return c
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
