// Package fabric models lossless-Ethernet datacenter switches: a shared
// packet buffer with per-ingress-port PFC accounting (IEEE 802.1Qbb Xoff/Xon
// thresholds), WRED ECN marking, per-hop INT telemetry stamping, static ECMP
// routing, and a pluggable per-port queue discipline so that DCI switches
// (package dci) can substitute per-flow queuing on selected ports.
package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mlcc/internal/audit"
	"mlcc/internal/link"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// Config parameterizes a switch.
type Config struct {
	ID pkt.NodeID
	// Salt stands for the switch in its ECMP hash and WRED seed: topo keeps
	// each switch's pre-dense-id number here, so no digest moved. Hashing ID
	// instead would re-pin every digest, a change to make on its own.
	Salt        int32
	BufferBytes int64 // shared data buffer capacity

	// WRED ECN marking thresholds on egress data queue length.
	ECNKmin int64
	ECNKmax int64
	ECNPmax float64

	// PFC per-ingress-port thresholds (bytes). PFCEnabled gates the whole
	// mechanism.
	PFCEnabled bool
	PFCXoff    int64
	PFCXon     int64

	// INTEnabled stamps per-hop telemetry onto data packets at dequeue.
	INTEnabled bool

	// Seed for the marking RNG; runs are deterministic per (Salt, Seed).
	Seed int64
}

// Hooks let a wrapper (the DCI switch) observe and rewrite traffic.
type Hooks interface {
	// OnIngress runs after routing and before enqueue. It may mutate the
	// packet (e.g. rewrite ACK rate fields) or consume it entirely (near-
	// source INT reflection consumes nothing, PFQ redirection does).
	// Returning true means the hook took ownership of the packet.
	OnIngress(p *pkt.Packet, inPort, outPort int) bool
}

// Discipline is a per-port egress queue. Implementations must be
// single-goroutine like everything else in the simulator.
type Discipline interface {
	link.Source
	// Enqueue stores p for transmission. It never rejects: admission
	// (shared-buffer) control happens in the switch before Enqueue.
	Enqueue(p *pkt.Packet)
	// DataBytes reports the queued data-class backlog in bytes.
	DataBytes() int64
	// Drain empties every queue, passing each frame to drop (which takes
	// ownership) and resetting all internal scheduling state — switch failure
	// uses it to destroy buffered frames pool-clean, bypassing the dequeue
	// accounting path.
	Drain(drop func(p *pkt.Packet))
}

// Switch is a store-and-forward output-queued switch.
type Switch struct {
	cfg  Config
	Eng  *sim.Engine
	Pool *pkt.Pool

	ports []*link.Port
	disc  []Discipline

	// route[rackOf[dst-1]] is 0 for no route, port+1 for a single egress
	// port, ^i for the ECMP set ecmp[i], or ownRack for a leaf's own rack,
	// whose hosts route through slot[dst-first] in the same encoding. A set
	// holds its candidates in the order they were added (the hash indexes
	// them); the racks that share it never see it change, since AddRackRoute
	// moves a rack to the set one port longer and makes that set only if no
	// rack holds it yet.
	rackOf []int32
	route  []int32
	slot   []int32
	first  pkt.NodeID
	ecmp   [][]int32

	hooks Hooks

	bufferUsed   int64
	ingressBytes []int64 // per ingress port, data class
	ingressPause []bool  // whether we have paused that upstream

	rng *rand.Rand // WRED draws; seeded on the first, since most switches never draw

	fr  *metrics.FlightRecorder
	aud *audit.Ledger
	pfc []pfcPortStat // per ingress port

	failed bool // device powered off by a node fault

	// Statistics.
	Drops      int64 // data packets dropped at admission
	Marked     int64 // CE marks applied
	PFCPauses  int64 // pause events generated (Xoff crossings)
	pfcResumes int64
	RxData     int64 // data packets received
	Fails      int64 // node-fault failure events applied
	Recovers   int64 // node-fault recovery events applied
	Drained    int64 // frames destroyed from egress queues by Fail
}

// pfcPortStat accounts PFC activity toward one upstream: pause/resume events
// generated on that ingress port and the cumulative time it was held paused.
type pfcPortStat struct {
	pauses      int64
	resumes     int64
	pausedTotal sim.Time

	pausedAt sim.Time // valid while the upstream is paused
}

// New constructs a switch with nports ports. Each port must then be
// configured via AddPort and connected by the topology builder.
func New(eng *sim.Engine, pool *pkt.Pool, cfg Config) *Switch {
	if cfg.ECNPmax == 0 {
		cfg.ECNPmax = 1
	}
	return &Switch{
		cfg:  cfg,
		Eng:  eng,
		Pool: pool,
	}
}

// ID returns the switch's node id.
func (s *Switch) ID() pkt.NodeID { return s.cfg.ID }

// AddPort creates port i (ports must be added in index order) with the given
// line rate and propagation delay, using the default two-class FIFO
// discipline. It returns the new port for the topology builder to Connect.
// A port index past 127, which pkt.Packet.InPort's byte cannot hold, panics.
func (s *Switch) AddPort(rate sim.Rate, delay sim.Time) *link.Port {
	idx := len(s.ports)
	if idx > math.MaxInt8 {
		panic(fmt.Sprintf("fabric: switch %d port %d past pkt.Packet.InPort's byte", s.cfg.ID, idx))
	}
	p := link.NewPort(s.Eng, s, idx, rate, delay, s.Pool)
	s.ports = append(s.ports, p)
	d := newFIFO()
	s.disc = append(s.disc, d)
	p.SetSource(&portSource{sw: s, port: idx})
	s.ingressBytes = append(s.ingressBytes, 0)
	s.ingressPause = append(s.ingressPause, false)
	s.pfc = append(s.pfc, pfcPortStat{})
	return p
}

// SetRecorder attaches a flight recorder (nil detaches). Hot-path call sites
// are guarded on the pointer, so a detached recorder costs one branch.
func (s *Switch) SetRecorder(fr *metrics.FlightRecorder) { s.fr = fr }

// Recorder returns the attached flight recorder (possibly nil).
func (s *Switch) Recorder() *metrics.FlightRecorder { return s.fr }

// SetAudit attaches the conservation-audit ledger (nil detaches).
func (s *Switch) SetAudit(a *audit.Ledger) { s.aud = a }

// pfcStatAt reports ingress port i's PFC accounting. pausedTotal includes the
// still-open pause interval when the upstream is currently paused, so it is
// accurate mid-run.
func (s *Switch) pfcStatAt(i int) pfcPortStat {
	st := s.pfc[i]
	if s.ingressPause[i] {
		st.pausedTotal += s.Eng.Now() - st.pausedAt
	}
	return st
}

// Instruments implements metrics.Source: the switch's counters and
// per-port instruments, registered under its prefix (e.g. "switch.leaf0").
func (s *Switch) Instruments(emit func(port int, name string, kind metrics.Kind, v float64)) {
	count := func(name string, v int64) { emit(-1, name, metrics.Counter, float64(v)) }
	count("rx_data_pkts", s.RxData)
	count("drops", s.Drops)
	count("ecn_marked", s.Marked)
	count("pfc_pauses", s.PFCPauses)
	count("pfc_resumes", s.pfcResumes)
	count("fails", s.Fails)
	count("recovers", s.Recovers)
	count("drained_pkts", s.Drained)
	emit(-1, "buffer_bytes", metrics.Gauge, float64(s.bufferUsed))
	for i := range s.ports {
		emit(i, "qlen_bytes", metrics.Gauge, float64(s.disc[i].DataBytes()))
		emit(i, "tx_bytes", metrics.Counter, float64(s.ports[i].TxBytes))
		emit(i, "pfc_pauses", metrics.Counter, float64(s.pfc[i].pauses))
		emit(i, "pfc_resumes", metrics.Counter, float64(s.pfc[i].resumes))
		emit(i, "pfc_pause_ns", metrics.Counter, float64(int64(s.pfcStatAt(i).pausedTotal/sim.Nanosecond)))
	}
}

// Port returns port i.
func (s *Switch) Port(i int) *link.Port { return s.ports[i] }

// Ports lists the ports in index order; the caller must not modify it.
func (s *Switch) Ports() []*link.Port { return s.ports }

// NumPorts reports the number of ports.
func (s *Switch) NumPorts() int { return len(s.ports) }

// SetDiscipline replaces the egress discipline of port i (used by the DCI
// switch to install per-flow queuing).
func (s *Switch) SetDiscipline(i int, d Discipline) { s.disc[i] = d }

// DisciplineAt returns the egress discipline of port i.
func (s *Switch) DisciplineAt(i int) Discipline { return s.disc[i] }

// SetHooks installs packet hooks (DCI behaviours).
func (s *Switch) SetHooks(h Hooks) { s.hooks = h }

// ownRack marks a leaf's own rack in its route table; no ECMP set reaches it.
const ownRack = math.MinInt32

// RouteByRack gives the switch its network's addressing, shared by every
// switch and never written: rackOf[h] is the rack of host NodeID h+1, one of
// racks. Fill the table with AddRackRoute and, on a leaf, RouteOwnRack.
func (s *Switch) RouteByRack(rackOf []int32, racks int) {
	s.rackOf, s.route = rackOf, make([]int32, racks)
}

// AddRackRoute adds port, which the switch must have, to the egress
// candidates toward every host of rack; called repeatedly it builds the
// ECMP set in call order.
func (s *Switch) AddRackRoute(rack, port int) {
	switch r := &s.route[rack]; {
	case *r == 0:
		*r = int32(port) + 1
	case *r > 0:
		*r = s.ecmpSet([]int32{*r - 1}, int32(port))
	default:
		*r = s.ecmpSet(s.ecmp[^*r], int32(port))
	}
}

// RouteOwnRack routes a leaf's own rack host by host: host first+i hangs
// off port i.
func (s *Switch) RouteOwnRack(rack int, first pkt.NodeID, hosts int) {
	s.route[rack], s.first, s.slot = ownRack, first, make([]int32, hosts)
	for i := range s.slot {
		s.slot[i] = int32(i) + 1
	}
}

// AddRoute registers an egress port candidate for one destination host on
// a switch with no topology behind it, which routes each host as a rack of
// its own; called repeatedly it builds the ECMP set. Host ids must be small
// positive integers (the topologies number hosts densely from 1); a dst
// below 1 or a port the switch does not have (yet — add ports first) panics
// here rather than at the first packet.
func (s *Switch) AddRoute(dst pkt.NodeID, port int) {
	if dst < 1 || port < 0 || port >= len(s.ports) {
		panic(fmt.Sprintf("fabric: switch %d: AddRoute(dst %d, port %d) with %d ports", s.cfg.ID, dst, port, len(s.ports)))
	}
	for len(s.rackOf) < int(dst) {
		s.rackOf = append(s.rackOf, int32(len(s.route)))
		s.route = append(s.route, 0)
	}
	s.AddRackRoute(int(s.rackOf[dst-1]), port)
}

// RouteTableLen reports the switch's route entries: one per rack, plus one
// per own host on a leaf.
func (s *Switch) RouteTableLen() int { return len(s.route) + len(s.slot) }

// ecmpSet returns the route reference of the set old followed by port,
// making that set if no rack holds it yet. A switch holds a handful
// of sets (one per uplink count), so a scan beats a map.
func (s *Switch) ecmpSet(old []int32, port int32) int32 {
	for i, c := range s.ecmp {
		if len(c) == len(old)+1 && c[len(old)] == port && slices.Equal(c[:len(old)], old) {
			return ^int32(i)
		}
	}
	set := make([]int32, len(old)+1)
	copy(set, old)
	set[len(old)] = port
	s.ecmp = append(s.ecmp, set)
	return ^int32(len(s.ecmp) - 1)
}

// RouteFor returns the egress port for a flow toward dst, hashing the flow
// id across the ECMP set. It panics on unknown destinations: a routing hole
// is always a topology bug.
func (s *Switch) RouteFor(dst pkt.NodeID, flow pkt.FlowID) int {
	var r int32
	if h := uint(dst - 1); h < uint(len(s.rackOf)) { // false for dst < 1 too
		if r = s.route[s.rackOf[h]]; r == ownRack {
			r = s.slot[dst-s.first]
		}
	}
	if r > 0 {
		return int(r - 1)
	}
	if r == 0 {
		panic(fmt.Sprintf("fabric: switch %d has no route to %d", s.cfg.ID, dst))
	}
	cands := s.ecmp[^r]
	h, n := ecmpHash(flow, s.cfg.Salt), uint32(len(cands))
	if n&(n-1) == 0 { // a power of two: the mask is the remainder, without a divide
		return int(cands[h&(n-1)])
	}
	return int(cands[h%n])
}

// ecmpHash mixes the flow id and switch salt (fnv-style) so different
// switches spread the same flows differently.
func ecmpHash(flow pkt.FlowID, salt int32) uint32 {
	h := uint32(2166136261)
	h = (h ^ uint32(flow)) * 16777619
	h = (h ^ uint32(salt)) * 16777619
	h = (h ^ (h >> 13)) * 0x5bd1e995
	return h ^ (h >> 15)
}

// BufferUsed reports the shared data buffer occupancy in bytes.
func (s *Switch) BufferUsed() int64 { return s.bufferUsed }

// Receive implements link.Endpoint.
func (s *Switch) Receive(p *pkt.Packet, on *link.Port) {
	out := s.RouteFor(p.Dst, p.Flow)
	if s.hooks != nil && s.hooks.OnIngress(p, on.Index, out) {
		return
	}
	s.ForwardTo(p, on.Index, out)
}

// ForwardTo runs admission control and enqueues p on egress port out. It is
// exported for the DCI hook, which re-injects PFQ packets through the normal
// path. inPort < 0 means "internally generated" (no PFC accounting).
func (s *Switch) ForwardTo(p *pkt.Packet, inPort, out int) {
	if p.Kind == pkt.Data {
		s.RxData++
		// Shared-buffer admission. Control frames are never dropped: they
		// are tiny and ride a protected class, as in real RDMA fabrics.
		if s.bufferUsed+int64(p.Size) > s.cfg.BufferBytes {
			s.Drops++
			if s.fr != nil {
				s.fr.Record(metrics.Event{T: s.Eng.Now(), Kind: metrics.EvDrop,
					Node: int16(s.cfg.ID), Port: int8(out), Flow: int32(p.Flow), Val: int64(p.Size)})
			}
			s.aud.OnWREDDrop(p.Flow, int(p.Size))
			s.Pool.Put(p)
			return
		}
		s.bufferUsed += int64(p.Size)
		p.InPort = int8(inPort)
		if inPort >= 0 {
			s.ingressBytes[inPort] += int64(p.Size)
			s.checkXoff(inPort)
		}
		s.ecnMark(p, out)
		if s.fr != nil {
			s.fr.Record(metrics.Event{T: s.Eng.Now(), Kind: metrics.EvEnqueue,
				Node: int16(s.cfg.ID), Port: int8(out), Flow: int32(p.Flow), Val: int64(p.Size)})
		}
	}
	s.disc[out].Enqueue(p)
	s.ports[out].Kick()
}

// checkXoff sends a PFC pause upstream when the ingress backlog crosses Xoff.
func (s *Switch) checkXoff(in int) {
	if !s.cfg.PFCEnabled || s.ingressPause[in] {
		return
	}
	if s.ingressBytes[in] >= s.cfg.PFCXoff {
		s.ingressPause[in] = true
		s.PFCPauses++
		st := &s.pfc[in]
		st.pauses++
		st.pausedAt = s.Eng.Now()
		if s.fr != nil {
			s.fr.Record(metrics.Event{T: s.Eng.Now(), Kind: metrics.EvPFCPause,
				Node: int16(s.cfg.ID), Port: int8(in), Val: s.ingressBytes[in]})
		}
		s.ports[in].SendPause(pkt.ClassData, true)
	}
}

// ecnMark applies WRED marking based on the egress data backlog.
func (s *Switch) ecnMark(p *pkt.Packet, out int) {
	if !p.ECT || s.cfg.ECNKmax <= 0 {
		return
	}
	q := s.disc[out].DataBytes()
	switch {
	case q <= s.cfg.ECNKmin:
		return
	case q >= s.cfg.ECNKmax:
		p.CE = true
	default:
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(s.cfg.Seed ^ int64(s.cfg.Salt)<<17 ^ 0x5eed))
		}
		prob := s.cfg.ECNPmax * float64(q-s.cfg.ECNKmin) / float64(s.cfg.ECNKmax-s.cfg.ECNKmin)
		if s.rng.Float64() < prob {
			p.CE = true
		}
	}
	if p.CE {
		s.Marked++
		if s.fr != nil {
			s.fr.Record(metrics.Event{T: s.Eng.Now(), Kind: metrics.EvECNMark,
				Node: int16(s.cfg.ID), Port: int8(out), Flow: int32(p.Flow), Val: q})
		}
	}
}

// afterDequeue performs post-dequeue accounting: shared-buffer release,
// PFC Xon resume, and INT stamping.
func (s *Switch) afterDequeue(p *pkt.Packet, out int) {
	if p.Kind != pkt.Data {
		return
	}
	s.bufferUsed -= int64(p.Size)
	if s.bufferUsed < 0 {
		s.violatef("shared buffer underflow: %d bytes after dequeue of flow %d", s.bufferUsed, p.Flow)
	}
	if in := int(p.InPort); in >= 0 && in < len(s.ingressBytes) {
		s.ingressBytes[in] -= int64(p.Size)
		if s.ingressBytes[in] < 0 {
			s.violatef("ingress port %d accounting underflow: %d bytes", in, s.ingressBytes[in])
		}
		if s.cfg.PFCEnabled && s.ingressPause[in] && s.ingressBytes[in] <= s.cfg.PFCXon {
			s.ingressPause[in] = false
			s.pfcResumes++
			st := &s.pfc[in]
			st.resumes++
			st.pausedTotal += s.Eng.Now() - st.pausedAt
			if s.fr != nil {
				s.fr.Record(metrics.Event{T: s.Eng.Now(), Kind: metrics.EvPFCResume,
					Node: int16(s.cfg.ID), Port: int8(in), Val: s.ingressBytes[in]})
			}
			s.ports[in].SendPause(pkt.ClassData, false)
		}
	}
	if s.fr != nil {
		s.fr.Record(metrics.Event{T: s.Eng.Now(), Kind: metrics.EvDequeue,
			Node: int16(s.cfg.ID), Port: int8(out), Flow: int32(p.Flow), Val: int64(p.Size)})
	}
	if s.cfg.INTEnabled {
		port := s.ports[out]
		s.Pool.AddHop(p, pkt.INTHop{
			Node:    s.cfg.ID,
			QLen:    s.disc[out].DataBytes(),
			TxBytes: port.TxBytes,
			TS:      s.Eng.Now(),
			Band:    port.Rate,
		})
	}
}

// Fail powers the switch off. Every egress queue drains pool-clean — each
// buffered frame is reported to the audit ledger as a fault drop (it is
// already past the inbound link's Rx accounting, so this is the fate that
// balances its flow's books) and returned to the pool, bypassing the dequeue
// path so a dead switch emits no Xon frames. Every attached port is cut in
// both directions (cross-shard peer ends are cut by the fault layer's peer-
// engine hook at the same absolute time). Shared-buffer and per-ingress PFC
// accounting reset wholesale; open pause intervals fold into pausedTotal
// without counting a resume — no Resume frame was ever sent. Idempotent.
func (s *Switch) Fail() {
	if s.failed {
		return
	}
	s.failed = true
	s.Fails++
	for i, p := range s.ports {
		s.disc[i].Drain(func(q *pkt.Packet) {
			s.Drained++
			s.aud.OnFaultDrop(q, false)
			s.Pool.Put(q)
		})
		p.SetDown(true)
		if peer := p.Peer(); peer != nil && !p.Cross() {
			peer.SetDown(true)
		}
	}
	s.bufferUsed = 0
	now := s.Eng.Now()
	for i := range s.ingressBytes {
		s.ingressBytes[i] = 0
		if s.ingressPause[i] {
			s.ingressPause[i] = false
			st := &s.pfc[i]
			st.pausedTotal += now - st.pausedAt
		}
	}
}

// Recover powers a failed switch back on: every attached port comes up in
// both directions (restoring a port kicks its transmitter). The switch
// restarts empty — buffers, PFC state and queues were cleared at Fail.
// Idempotent.
func (s *Switch) Recover() {
	if !s.failed {
		return
	}
	s.failed = false
	s.Recovers++
	for _, p := range s.ports {
		p.SetDown(false)
		if peer := p.Peer(); peer != nil && !p.Cross() {
			peer.SetDown(false)
		}
	}
}

// Failed reports whether the switch is currently powered off.
func (s *Switch) Failed() bool { return s.failed }

// violatef reports a broken conservation invariant: the flight recorder's
// last events are replayed (when one is attached) and the simulation panics.
func (s *Switch) violatef(format string, args ...any) {
	metrics.Violation(s.fr, fmt.Sprintf("fabric: switch %d: ", s.cfg.ID)+fmt.Sprintf(format, args...))
}

// portSource adapts a Discipline to link.Source, inserting the switch's
// post-dequeue accounting between the queue and the wire.
type portSource struct {
	sw   *Switch
	port int
}

func (ps *portSource) Next(paused *[pkt.NumClasses]bool) *pkt.Packet {
	p := ps.sw.disc[ps.port].Next(paused)
	if p == nil {
		return nil
	}
	ps.sw.afterDequeue(p, ps.port)
	return p
}

// Quiet lets the port defer the end of a serialization (see link.Port's
// pullNext): ForwardTo kicks the port after every Enqueue, so an empty FIFO
// egress is quiet. Paced disciplines (the DCI's per-flow queues) wake
// themselves and never are.
func (ps *portSource) Quiet() bool {
	f, ok := ps.sw.disc[ps.port].(*fifo)
	return ok && f.q[pkt.ClassData].Len()+f.q[pkt.ClassControl].Len() == 0
}
