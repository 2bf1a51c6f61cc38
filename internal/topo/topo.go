// Package topo builds the simulated networks of the paper's evaluation: the
// two-datacenter spine-leaf topology of Fig. 1 (2 spines + 4 leaves + 4
// servers/leaf per DC, 4:1 oversubscription, DCI switches joined by a
// long-haul fiber), and the same fabric without spines, whose leaves uplink
// straight to their DCI — with one leaf per DC, the dumbbell testbed of
// §4.6. It owns all wiring: ports, links, static ECMP routes and
// per-algorithm switch features (ECN, INT, PFC, MLCC DCI behaviours). Every
// base RTT, control-loop RTT and the INT stack depth is walked off the
// wired routes (see walk), never computed per shape.
package topo

import (
	"fmt"

	"mlcc/internal/audit"
	"mlcc/internal/cc"
	"mlcc/internal/core"
	"mlcc/internal/dci"
	"mlcc/internal/fabric"
	"mlcc/internal/fault"
	"mlcc/internal/guard"
	"mlcc/internal/host"
	"mlcc/internal/link"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// algFactory builds the congestion-control bundle for a network; it receives
// the engine because some algorithms (DCQCN) run timers.
type algFactory func(eng *sim.Engine) cc.Algorithm

// Params describes a network build.
type Params struct {
	// Shape (defaults follow §4.1). With SpinesPerDC = 0 each leaf uplinks
	// straight to its DC's DCI.
	SpinesPerDC  int
	LeavesPerDC  int
	HostsPerLeaf int

	// Link speeds and the long-haul delay.
	HostRate      sim.Rate // server NIC / server-leaf links
	FabricRate    sim.Rate // switch-switch links
	LongHaulDelay sim.Time

	PFCEnabled bool

	// ECN (WRED) marking; zero Kmax disables.
	dcKmin, dcKmax   int64
	dciKmin, dciKmax int64
	ecnPmax          float64

	// Telemetry.
	intEnabled bool

	mtu         int
	cnpInterval sim.Time // host CNP pacing (DCQCN); 0 disables CNP generation

	// Host loss-recovery knobs (zero = host defaults; see host.Config).
	RTOMin     sim.Time
	RTOMax     sim.Time
	MaxRetrans int

	// FBWatchdogK is the feedback-silence watchdog threshold in base RTTs
	// (see host.Config.FBWatchdogK). Zero — the default — leaves it off:
	// the watchdog cannot distinguish a severed reverse path from a long
	// congestion pause (PFC storms silence feedback for many RTTs on
	// µs-RTT intra-DC flows), so arming is an explicit choice made where
	// feedback faults are configured (mlccsim arms host.DefaultWatchdogK
	// whenever a feedback-fault flag is given; fb-resilience sets its own).
	FBWatchdogK int

	// Congestion control.
	alg algFactory

	// MLCC DQM parameters (credit/queue management at receiver-side DCIs).
	DQM core.DQMParams

	// Telemetry, when non-nil, is wired through every component at build
	// time: instruments register in its registry and each component receives
	// its shard's flight recorder (one lock-free ring per shard, merged at
	// export). Sampling, when enabled, is pumped by Run at quiescent
	// boundaries. Nil (the default) costs nothing.
	Telemetry *metrics.Telemetry

	// Fault, when non-empty, is applied to the built network: scripted
	// link flaps and degradation plus Bernoulli loss rules, all on seeded
	// PRNG streams (see internal/fault). Nil or empty perturbs nothing.
	Fault *fault.Plan

	// Guard, when non-nil, arms the runtime-invariant plane: a PFC
	// pause-storm watchdog, a pause-cycle deadlock detector and a global
	// progress supervisor, all ticking at quiescent points (see
	// internal/guard). Zero fields in the config take defaults scaled by the
	// topology's cross-DC RTT. The plane is read-only: an armed but
	// untriggered guard leaves the run bit-identical, digests included. A
	// progress stall requests a graceful halt — Run returns early and
	// Halted() reports why.
	Guard *guard.Config

	// Audit, when non-nil, is wired through every component at build time:
	// hosts and switches report packet fates into the conservation ledger
	// and every cable is registered for per-link accounting (see
	// internal/audit). Nil (the default) costs nothing and leaves the run
	// bit-identical.
	Audit *audit.Ledger

	// Shards selects conservative parallel execution: the topology is
	// partitioned per DC, each partition owns its own engine and packet
	// pool, and the partitions run in lookahead-bounded lockstep with the
	// long-haul frames exchanged through mailboxes at every barrier (the
	// lookahead is LongHaulDelay; see sim.ShardGroup and DESIGN.md,
	// "Parallel engine"). 0 or 1 runs everything on one engine —
	// bit-identical to historical builds; values above the DC count clamp
	// to it. A topology without a positive long-haul delay runs on one
	// engine: it has no lookahead to bound the barriers. Sharded runs stay
	// bit-deterministic and produce the same determinism digests as
	// shards=1 — fault plans included (see DESIGN.md, "Sharded faults").
	Shards int

	Seed int64
}

// The paper's fixed link delays, buffers and PFC thresholds (§4.1).
const (
	hostLinkDelay = sim.Microsecond     // server-leaf links
	fabricDelay   = 5 * sim.Microsecond // switch-switch links in a DC

	dcBuffer  = 22 << 20  // leaf and spine shared buffer, bytes
	dciBuffer = 128 << 20 // DCI shared buffer, bytes

	dcXoff  = 512 << 10
	dcXon   = 256 << 10
	dciXoff = 32 << 20
	dciXon  = 16 << 20
)

// DefaultParams returns the paper's simulation setup (§4.1) without an
// algorithm bound; callers bind one with WithAlgorithm.
func DefaultParams() Params {
	return Params{
		SpinesPerDC:   2,
		LeavesPerDC:   4,
		HostsPerLeaf:  4,
		HostRate:      25 * sim.Gbps,
		FabricRate:    100 * sim.Gbps,
		LongHaulDelay: 3 * sim.Millisecond,
		PFCEnabled:    true,
		ecnPmax:       0.2,
		intEnabled:    true,
		mtu:           pkt.DefaultMTU,
		DQM:           core.DefaultDQMParams(),
	}
}

// Network is a built simulation: engine(s), hosts, switches and metadata.
type Network struct {
	P Params

	// Engines and Pools hold the per-shard engines and packet pools in
	// shard (= DC) order; both have length 1 unless the build is sharded.
	// The device table decides which shard each device runs on.
	Engines []*sim.Engine
	Pools   []*pkt.Pool

	Table *host.Table
	Alg   cc.Algorithm

	Hosts  []*host.Host // global index; [0, HostsPerDC) = DC 0
	Leaves []*fabric.Switch
	Spines []*fabric.Switch
	DCIs   []*dci.Switch

	// Faults is the applied fault plan's injector (nil when P.Fault is
	// empty).
	Faults *fault.Injector

	// Guard is the armed runtime-invariant plane (nil when P.Guard is nil).
	Guard *guard.Plane

	HostsPerDC int
	// Dumbbell is set by the Dumbbell preset and read only by the benchmark
	// harness; nothing in this module branches on it.
	Dumbbell bool

	numHosts int
	shards   int
	nearRTTs []sim.Time // per host, walked at its first nearRTT; 0 until then
	rackRTTs []sim.Time // base RTT per (source rack, destination rack); 0 until walked

	starts [2]arrivals // per shard: the flows registered and not yet started

	devs     []device         // the device table (see devices.go)
	switches []*fabric.Switch // every switch in table order: leaves, spines, DCIs

	algs  []cc.Algorithm  // per-shard CC bundles; algs[0] == Alg
	group *sim.ShardGroup // barrier scheduler; nil on single-engine builds
	auds  []*audit.Ledger // per-shard partial ledgers (len > 1 only when sharded)

	qhooks []*quiescentHook // periodic quiescent callbacks driven by Run

	// crossA/crossB are the long-haul cross-shard mailbox ports, flushed in
	// fixed A→B order at every barrier (nil on single-engine builds).
	crossA, crossB *link.Port

	// halted/haltReason record a graceful diagnostic abort requested by the
	// guard plane (or any quiescent hook): Run stops at the next quiescent
	// boundary instead of advancing to its deadline.
	halted     bool
	haltReason string
}

// NumHosts reports the total host count.
func (n *Network) NumHosts() int { return n.numHosts }

// ShardCount reports how many engines the build actually runs on: P.Shards
// clamped to the DC count, or 1 when the topology has no positive long-haul
// delay.
func (n *Network) ShardCount() int { return n.shards }

// shardOf maps a DC index to its shard: identity on sharded builds, 0
// otherwise. It is the one place the layout is decided: the builders' engOf,
// poolOf and algOf and the device table's shard column all go through it.
func (n *Network) shardOf(dc int) int {
	if n.shards > 1 {
		return dc
	}
	return 0
}

func (n *Network) engOf(dc int) *sim.Engine  { return n.Engines[n.shardOf(dc)] }
func (n *Network) poolOf(dc int) *pkt.Pool   { return n.Pools[n.shardOf(dc)] }
func (n *Network) algOf(dc int) cc.Algorithm { return n.algs[n.shardOf(dc)] }

// leafDC returns the DC index of leaf switch i.
func (n *Network) leafDC(i int) int { return i / n.P.LeavesPerDC }

// spineDC returns the DC index of spine switch i.
func (n *Network) spineDC(i int) int { return i / n.P.SpinesPerDC }

// Now returns the current simulation time: the group clock on sharded
// builds (every engine's clock equals it between runs), the engine clock
// otherwise.
func (n *Network) Now() sim.Time {
	if n.group != nil {
		return n.group.Now()
	}
	return n.Engines[0].Now()
}

// Fired reports the total events executed across all shards.
func (n *Network) Fired() uint64 {
	var t uint64
	for _, e := range n.Engines {
		t += e.Fired()
	}
	return t
}

// PendingEvents reports the total live events across all shards, each flow
// not yet started included.
func (n *Network) PendingEvents() int {
	var t int
	for i, e := range n.Engines {
		t += e.Pending() + n.starts[i].backlog()
	}
	return t
}

// Drained reports whether every packet has returned to a pool. Summing
// across shards is exact even though long-haul frames are freed into the
// receiving shard's pool: each Get is +1 on its pool and each Put −1 on
// whichever pool receives the frame, so the sum counts packets in flight.
func (n *Network) Drained() bool {
	var t int64
	for _, pl := range n.Pools {
		t += pl.Outstanding()
	}
	return t == 0
}

// DC returns the datacenter index (0 or 1) of host h.
func (n *Network) DC(h int) int { return h / n.HostsPerDC }

// Rack returns the global rack (leaf) index of host h, numbered from 0.
// The paper numbers racks from 1; rack "1" is index 0, rack "5" is index 4.
func (n *Network) Rack(h int) int { return h / n.P.HostsPerLeaf }

// nodeID is the node id of device-table row row; host h is row h.
func nodeID(row int) pkt.NodeID { return pkt.NodeID(1 + row) }

// HostIndex converts a NodeID back to a host index.
func (n *Network) HostIndex(id pkt.NodeID) int { return int(id) - 1 }

// RackHost returns the host index of server i (0-based) in paper rack r
// (1-based), e.g. RackHost(5, 0) is the first server of Rack 5.
func (n *Network) RackHost(r, i int) int { return (r-1)*n.P.HostsPerLeaf + i }

// CrossDC reports whether a src→dst host pair crosses datacenters.
func (n *Network) CrossDC(src, dst int) bool { return n.DC(src) != n.DC(dst) }

// walk follows the route a frame takes from host src toward host dst — flow
// 0's ECMP choice, which costs the same as any other on these symmetric
// fabrics — and returns the round trip it adds up: per hop, the propagation
// out and back, one MTU serialized out and one control frame back. The
// control frame is charged at FabricRate on every hop, host hops included.
// With toDCI the walk stops at src's own DCI. It also counts the switches
// it enters.
func (n *Network) walk(src, dst int, toDCI bool) (rtt sim.Time, switches int) {
	ctl := sim.TxTime(pkt.ControlSize, n.P.FabricRate)
	to := nodeID(dst)
	out, own := n.Hosts[src].Port(), n.DCIs[n.DC(src)].Switch
	for {
		rtt += 2*out.Delay + sim.TxTime(n.P.mtu, out.Rate) + ctl
		sw, ok := out.Peer().Owner.(*fabric.Switch)
		if !ok {
			return rtt, switches // dst's NIC
		}
		switches++
		if toDCI && sw == own {
			return rtt, switches
		}
		out = sw.Port(sw.RouteFor(to, 0))
	}
}

// peerDCHost returns the first host of the DC host h is not in.
func (n *Network) peerDCHost(h int) int { return (1 - n.DC(h)) * n.HostsPerDC }

// baseRTT returns the unloaded RTT between two hosts: the walk (see walk)
// from src's rack to dst's, taken once per rack pair, since every host link
// is alike.
func (n *Network) baseRTT(src, dst int) sim.Time {
	rtt := &n.rackRTTs[n.Rack(src)*2*n.P.LeavesPerDC+n.Rack(dst)]
	if *rtt == 0 {
		*rtt, _ = n.walk(src, dst, false)
	}
	return *rtt
}

// nearRTT returns the sender ↔ sender-side DCI loop RTT for host h: the walk
// from h to its own DCI, taken once per host.
func (n *Network) nearRTT(h int) sim.Time {
	if n.nearRTTs[h] == 0 {
		n.nearRTTs[h], _ = n.walk(h, n.peerDCHost(h), true)
	}
	return n.nearRTTs[h]
}

// farRTT returns the receiver ↔ receiver-side DCI loop RTT for host h (the
// credit loop's RTT_D): the same walk from h to its own DCI.
func (n *Network) farRTT(h int) sim.Time { return n.nearRTT(h) }

// PerHostBisection returns each host's share of its leaf's uplink capacity
// (its spine uplinks, or its one DCI uplink without spines), capped at the
// NIC rate — the capacity the evaluation's intra-DC "load" percentages are
// measured against in oversubscribed fabrics. With one leaf and no spine per
// DC no intra-DC path leaves the leaf, so a host gets its NIC rate.
func (n *Network) PerHostBisection() sim.Rate {
	uplinks := n.P.SpinesPerDC
	if uplinks == 0 && n.P.LeavesPerDC == 1 || n.P.HostsPerLeaf == 0 {
		return n.P.HostRate
	}
	share := sim.Rate(int64(n.P.FabricRate) * int64(max(uplinks, 1)) / int64(n.P.HostsPerLeaf))
	return min(share, n.P.HostRate)
}

// crossRTT returns the representative cross-DC RTT.
func (n *Network) crossRTT() sim.Time { return n.baseRTT(0, n.HostsPerDC) }

// flowInfo assembles the cc.flowInfo for a src→dst transfer.
func (n *Network) flowInfo(src, dst int, size int64) cc.FlowInfo {
	if src == dst {
		panic(fmt.Sprintf("topo: flow to self (host %d)", src))
	}
	return cc.FlowInfo{
		Src:      nodeID(src),
		Dst:      nodeID(dst),
		Size:     size,
		LinkRate: n.P.HostRate,
		MTU:      n.P.mtu,
		BaseRTT:  n.baseRTT(src, dst),
		NearRTT:  n.nearRTT(src),
		FarRTT:   n.farRTT(dst),
		CrossDC:  n.CrossDC(src, dst),
	}
}

// AddFlow registers a flow starting at time start and schedules its launch
// on the source host's engine, under the key At(start, ...) would take now
// (see arrivals). On sharded builds AddFlow may only be called with every
// engine parked — before Run, or on the driving goroutine inside a quiescent
// hook (the scenario barrier poll launches collective phases this way) —
// since scheduling into a foreign shard mid-run would break the
// single-goroutine engine contract.
func (n *Network) AddFlow(src, dst int, size int64, start sim.Time) *host.Flow {
	f := n.Table.Add(n.flowInfo(src, dst, size), start)
	a := &n.starts[n.shardOf(n.DC(src))]
	if a.eng == nil {
		a.eng, a.launch = n.engOf(n.DC(src)), a.next
	}
	a.add(n.Hosts[src], f)
	return f
}

// arrivals is one engine's flows not yet started, in start order. Each entry
// reserves its launch's key with Defer on an unregistered sim.Key as it is
// added, so it fires under the key At would have given it, but only the head
// is queued: when it fires it commits the next entry and starts its flow. So
// the event heap holds one arrival per engine, not one per flow. A flow that
// starts before the tail (registered out of order, say by a quiescent hook) is
// queued directly with At, under the same key.
type arrivals struct {
	eng    *sim.Engine
	q      []arrival // q[head] is queued; the rest hold reserved keys
	head   int
	launch func() // next, bound once
}

type arrival struct {
	key sim.Key
	h   *host.Host
	f   *host.Flow
}

func (a *arrivals) add(h *host.Host, f *host.Flow) {
	if f.Start < a.eng.Now() || a.head < len(a.q) && f.Start < a.q[len(a.q)-1].f.Start {
		a.eng.At(f.Start, func() { h.StartFlow(f) })
		return
	}
	a.q = append(a.q, arrival{h: h, f: f})
	k := &a.q[len(a.q)-1].key
	a.eng.Defer(k, f.Start)
	if a.head == len(a.q)-1 {
		a.eng.Commit(k, a.launch)
	}
}

// next starts the head's flow, queueing the entry after it first.
func (a *arrivals) next() {
	e := a.q[a.head]
	if a.head++; a.head == len(a.q) {
		a.q, a.head = a.q[:0], 0
	} else {
		a.eng.Commit(&a.q[a.head].key, a.launch)
	}
	e.h.StartFlow(e.f)
}

// backlog reports the entries whose keys are reserved but not queued.
func (a *arrivals) backlog() int { return max(len(a.q)-a.head-1, 0) }

// quiescentHook is a callback Run fires with every engine parked at a
// multiple of its interval — the mechanism behind pump-driven telemetry
// sampling, live observability snapshots and the scenario barrier poll.
// Passive hooks (telemetry, obs) schedule no engine events, so a run with
// them executes the exact same event sequence as one without (RunUntil
// partitioning is behaviour-neutral: the heap orders by (time, insertion seq)
// and boundary events still fire at their boundary). Hooks that do schedule —
// the scenario poll registers next-phase flows via AddFlow — stay
// deterministic because boundaries are exact multiples independent of shard
// layout and the hook runs with all engines parked.
type quiescentHook struct {
	every sim.Time
	next  sim.Time
	fn    func(now sim.Time)
}

// OnQuiescent registers fn to be called at every multiple of every (starting
// at Now()+every) during subsequent Run calls, with the simulation quiescent
// and the clock exactly at the boundary. Callbacks run on the driving
// goroutine with no engine goroutine active, so they may read any simulation
// state — across shards — without synchronization. Hooks registered with the
// same boundary fire in registration order.
func (n *Network) OnQuiescent(every sim.Time, fn func(now sim.Time)) {
	if every <= 0 {
		panic("topo: OnQuiescent interval must be positive")
	}
	n.qhooks = append(n.qhooks, &quiescentHook{every: every, next: n.Now() + every, fn: fn})
}

// runTo advances to t — through the conservative barrier scheduler on
// sharded builds, directly on the engine otherwise.
func (n *Network) runTo(t sim.Time) {
	if n.group != nil {
		n.group.RunUntil(t)
		return
	}
	n.Engines[0].RunUntil(t)
}

// Run advances the simulation to the given time, pausing at every quiescent
// hook boundary on the way (see OnQuiescent). Without hooks this is a single
// uninterrupted advance. A halt requested by a hook (the guard plane's
// progress supervisor) stops the advance at that boundary; further Run calls
// are no-ops.
func (n *Network) Run(until sim.Time) {
	if n.halted {
		return
	}
	if len(n.qhooks) == 0 {
		n.runTo(until)
		return
	}
	for {
		now := n.Now()
		next := until
		for _, h := range n.qhooks {
			if h.next > now && h.next < next {
				next = h.next
			}
		}
		n.runTo(next)
		for _, h := range n.qhooks {
			if h.next == next {
				h.fn(next)
				h.next += h.every
			}
		}
		if n.halted || next >= until {
			return
		}
	}
}

// requestHalt asks Run to stop at the current quiescent boundary with a
// diagnostic reason — the guard plane's graceful abort path. First reason
// wins; later requests are ignored.
func (n *Network) requestHalt(reason string) {
	if n.halted {
		return
	}
	n.halted = true
	n.haltReason = reason
}

// Halted reports whether a graceful diagnostic abort was requested, and why.
func (n *Network) Halted() (bool, string) { return n.halted, n.haltReason }
