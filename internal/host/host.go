// Package host models RDMA-capable servers: per-flow rate-paced queue pairs
// multiplexed onto one NIC port, per-packet ACK generation with INT echo,
// DCQCN CNP generation, MLCC credit handling via pluggable receiver logic,
// go-back-N loss recovery, and flow-completion-time recording.
package host

import (
	"fmt"

	"mlcc/internal/audit"
	"mlcc/internal/cc"
	"mlcc/internal/link"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// Flow is one transfer plus its life-cycle record. Flows are registered in a
// Table shared by sender and receiver hosts and by the stats collectors.
type Flow struct {
	Info  cc.FlowInfo
	Start sim.Time // scheduled start time

	// Filled in as the simulation progresses. The receiver sets Done and
	// FinishAt when the last byte arrives; the sender sets Aborted and
	// AbortAt when it gives up after its retransmission budget. Both can
	// happen to one flow: a sender whose ACKs are all lost aborts a flow its
	// receiver finished, and the flow counts as done.
	started  bool
	Done     bool
	Aborted  bool
	FinishAt sim.Time
	AbortAt  sim.Time
	RxBytes  int64 // payload bytes received (any order), for throughput series

	// Per-endpoint transport state, hung here so the per-packet paths find it
	// with the one table index they already do. A flow has exactly one sender
	// and one receiver: only the Src host (its shard) touches send, Aborted
	// and AbortAt — send is nil unless the flow is actively sending — and
	// only the Dst host touches recv, Done, FinishAt and RxBytes. On a
	// sharded build neither side may read the other's fields mid-run, because
	// a cross-DC peer's writes reach it only at a barrier.
	send *sendState
	recv *recvState
}

// FCT returns the flow completion time, or 0 if unfinished.
func (f *Flow) FCT() sim.Time {
	if !f.Done {
		return 0
	}
	return f.FinishAt - f.Start
}

// Fate is how a flow ended.
type Fate uint8

// Fates. Done wins over aborted: a flow its receiver finished counts as
// done even if its sender gave up on it afterwards.
const (
	FateUnfinished Fate = iota // neither finished nor given up (yet)
	FateDone                   // the receiver took the last byte
	FateAborted                // the sender gave up first
)

// Fate is the flow's one verdict; every reader that sorts flows into done,
// aborted and unfinished asks it.
func (f *Flow) Fate() Fate {
	switch {
	case f.Done:
		return FateDone
	case f.Aborted:
		return FateAborted
	}
	return FateUnfinished
}

// End is when the flow's fate was sealed: its receiver's completion when
// done, its sender's abort when aborted, else 0.
func (f *Flow) End() sim.Time {
	switch f.Fate() {
	case FateDone:
		return f.FinishAt
	case FateAborted:
		return f.AbortAt
	}
	return 0
}

// Table is the global flow registry for one simulation. IDs are assigned
// 1..N by Add, so the registry is a slice indexed by id-1.
type Table struct {
	flows []*Flow
}

// NewTable returns an empty registry.
func NewTable() *Table { return &Table{} }

// Add registers a flow, assigning its ID, and returns it.
func (t *Table) Add(info cc.FlowInfo, start sim.Time) *Flow {
	info.ID = pkt.FlowID(len(t.flows) + 1)
	f := &Flow{Info: info, Start: start}
	t.flows = append(t.flows, f)
	return f
}

// Get returns the flow with the given id, or nil.
func (t *Table) Get(id pkt.FlowID) *Flow {
	if i := uint(id - 1); i < uint(len(t.flows)) { // false for id ≤ 0 too
		return t.flows[i]
	}
	return nil
}

// All returns a copy of the registry, in ID order.
func (t *Table) All() []*Flow { return append([]*Flow(nil), t.flows...) }

// Len reports the number of registered flows.
func (t *Table) Len() int { return len(t.flows) }

// Config parameterizes a host.
type Config struct {
	ID          pkt.NodeID
	Rate        sim.Rate
	MTU         int
	CNPInterval sim.Time // min spacing of DCQCN CNPs per flow (0 disables CNPs)
	RTOMin      sim.Time // floor for the go-back-N retransmission timeout
	RTOMax      sim.Time // cap for exponential RTO backoff (default 100 ms)

	// MaxRetrans bounds consecutive timeout retransmissions without
	// cumulative-ack progress; one more timeout aborts the flow instead of
	// retrying forever into a dead path. 0 means the default (16);
	// negative disables aborting.
	MaxRetrans int

	// FBWatchdogK arms the feedback-silence watchdog: with data outstanding
	// and no feedback (ACK, CNP or Switch-INT) for max(K·BaseRTT, RTOMin),
	// the flow's pacing rate is halved once per further silent RTT (graceful
	// decay toward cc.MinRate), and recovers one halving per feedback frame
	// once the reverse path returns. 0 (the default) disarms the watchdog
	// entirely: pacing reads the CC rate untouched, so clean runs are
	// bit-identical to pre-watchdog builds.
	FBWatchdogK int
}

// DefaultWatchdogK is the silence threshold (in base RTTs) callers arm when
// they configure feedback faults without choosing a K (mlccsim's feedback
// flags use it). 4·RTT matches the go-back-N RTO base: the watchdog starts
// decaying at the same silence scale where loss recovery would suspect a
// dead path. The library default is off — congestion pauses (PFC storms)
// also silence feedback, so arming is a policy decision, not a topology one.
const DefaultWatchdogK = 4

// Loss-recovery defaults New gives a zero Config field.
const DefaultRTOMin, DefaultRTOMax, DefaultMaxRetrans = 500 * sim.Microsecond, 100 * sim.Millisecond, 16

// wdMaxShift caps the watchdog's halving exponent; 2^30 is far below
// cc.MinRate for any real line rate, so deeper decay is unobservable.
const wdMaxShift = 30

// Host is one server with a single NIC port.
type Host struct {
	Eng  *sim.Engine
	Pool *pkt.Pool
	cfg  Config

	port  *link.Port
	table *Table

	newSender   cc.SenderFactory
	newReceiver cc.ReceiverFactory

	// Sender side.
	sending []*sendState
	rr      int
	ctl     pkt.Queue // outgoing control frames
	wakeEv  sim.Timer
	wakeAt  sim.Time
	kick    func() // bound port.Kick, so pacing wake-ups don't allocate

	// Node-fault state: crashed marks the host powered off (NIC cable cut,
	// sender-side state torn down); parked remembers each in-progress flow's
	// acked prefix so Restart can rebuild its go-back-N state and resume.
	crashed bool
	parked  []parkedFlow

	// OnFlowDone, if set, fires when this host (as receiver) sees a flow's
	// last in-order byte.
	OnFlowDone func(f *Flow)

	// Telemetry (all optional; nil means off).
	fr  *metrics.FlightRecorder
	aud *audit.Ledger

	// fbFilter, if set, screens every feedback frame (ACK, CNP, Switch-INT)
	// at ingress — the fault layer's reverse-path hook. It returns whether to
	// destroy the frame, how long to defer it and how many corruptions it
	// applied to its INT stack; the host counts all three. The signature
	// matches fault.FeedbackFilter structurally so the topology can hand one
	// over without this package importing the fault layer.
	fbFilter func(now sim.Time, p *pkt.Packet) (drop bool, delay sim.Time, corrupts int)

	// Counters.
	Retransmits int64
	OutOfOrder  int64
	SentData    int64
	RecvData    int64
	Aborted     int64 // sender-side flows given up after the retransmission budget

	// Feedback-plane counters.
	FBDropped        int64 // feedback frames destroyed by the fault filter
	FBDelayed        int64 // feedback frames deferred by the fault filter
	FBCorrupted      int64 // INT-stack corruptions applied by the fault filter
	InvalidINT       int64 // structurally invalid INT stacks discarded at ingress
	WatchdogDecays   int64 // rate halvings applied by the feedback-silence watchdog
	WatchdogRecovers int64 // halvings unwound after feedback resumed

	// Node-fault counters.
	Crashes  int64 // scripted power-loss events applied to this host
	Restarts int64 // scripted restarts applied to this host

	// ackedTotal accumulates cumulative-ack advances across all sender-side
	// flows — monotone, so the guard plane's stall supervisor can use it as
	// this host's progress signal.
	ackedTotal int64
}

type sendState struct {
	flow     *Flow
	sender   cc.Sender
	next     int64 // next payload byte to emit
	acked    int64 // cumulative acknowledged
	nextTime sim.Time
	progress sim.Time // last time acked advanced
	lastFB   sim.Time // last feedback frame seen (watchdog silence clock)
	wdShift  int      // current watchdog halving exponent (0 = no decay)
	rtoEv    sim.Timer
	rtoFn    func() // bound checkRTO closure, one per flow (not per re-arm)
	backoff  uint   // consecutive-timeout RTO exponent; reset on progress
	retrans  int    // consecutive timeout retransmissions without progress
	lastRate int64  // the rate the flight recorder last logged for the flow
	done     bool
}

type recvState struct {
	flow    *Flow
	rcv     cc.Receiver
	got     int64 // contiguous bytes received
	lastCNP sim.Time
	hasCNP  bool
}

// parkedFlow is a sender-side flow surviving a host crash: the acked prefix
// is the transfer's durable checkpoint, from which Restart rebuilds go-back-N
// state (next = acked) and resumes.
type parkedFlow struct {
	flow  *Flow
	acked int64
}

// New constructs a host. Call Port to obtain its NIC port for connecting.
func New(eng *sim.Engine, pool *pkt.Pool, cfg Config, table *Table,
	newSender cc.SenderFactory, newReceiver cc.ReceiverFactory, delay sim.Time) *Host {
	if cfg.MTU <= 0 {
		cfg.MTU = pkt.DefaultMTU
	}
	if cfg.RTOMin <= 0 {
		cfg.RTOMin = DefaultRTOMin
	}
	if cfg.RTOMax <= 0 {
		cfg.RTOMax = DefaultRTOMax
	}
	if cfg.MaxRetrans == 0 {
		cfg.MaxRetrans = DefaultMaxRetrans
	}
	h := &Host{
		Eng: eng, Pool: pool, cfg: cfg, table: table,
		newSender: newSender, newReceiver: newReceiver,
	}
	h.port = link.NewPort(eng, h, 0, cfg.Rate, delay, pool)
	h.port.SetSource(h)
	h.kick = h.port.Kick
	return h
}

// Port returns the NIC port for topology wiring.
func (h *Host) Port() *link.Port { return h.port }

// SetRecorder attaches a flight recorder (nil detaches).
func (h *Host) SetRecorder(fr *metrics.FlightRecorder) { h.fr = fr }

// SetAudit attaches the conservation-audit ledger (nil detaches).
func (h *Host) SetAudit(a *audit.Ledger) { h.aud = a }

// SetFeedbackFilter installs the fault layer's reverse-path filter (nil
// detaches). The parameter is a bare func type so fault.FeedbackFilter
// assigns directly without an import edge from host to fault.
func (h *Host) SetFeedbackFilter(f func(now sim.Time, p *pkt.Packet) (drop bool, delay sim.Time, corrupts int)) {
	h.fbFilter = f
}

// Instruments implements metrics.Source: the host's counters, registered
// under its prefix (e.g. "host.h0").
func (h *Host) Instruments(emit func(port int, name string, kind metrics.Kind, v float64)) {
	count := func(name string, v int64) { emit(-1, name, metrics.Counter, float64(v)) }
	count("sent_data_pkts", h.SentData)
	count("recv_data_pkts", h.RecvData)
	count("retransmits", h.Retransmits)
	count("out_of_order", h.OutOfOrder)
	count("aborted_flows", h.Aborted)
	count("tx_bytes", h.port.TxBytes)
	count("fb_dropped", h.FBDropped)
	count("fb_delayed", h.FBDelayed)
	count("fb_invalid_int", h.InvalidINT)
	count("watchdog_decays", h.WatchdogDecays)
	count("watchdog_recovers", h.WatchdogRecovers)
	count("crashes", h.Crashes)
	count("restarts", h.Restarts)
}

// ID returns the host's node id.
func (h *Host) ID() pkt.NodeID { return h.cfg.ID }

// StartFlow begins transmitting flow f (which must have Src == this host).
func (h *Host) StartFlow(f *Flow) {
	if f.Info.Src != h.cfg.ID {
		panic(fmt.Sprintf("host %d: StartFlow for src %d", h.cfg.ID, f.Info.Src))
	}
	f.started = true
	h.aud.OnFlowStart(f.Info.ID, f.Info.Size)
	h.startSend(f, 0)
	h.port.Kick()
}

// startSend builds f's go-back-N state from its acked prefix — next = acked
// = from, a fresh CC sender, every clock at now — and arms its RTO timer.
func (h *Host) startSend(f *Flow, from int64) {
	now := h.Eng.Now()
	s := &sendState{
		flow:     f,
		sender:   h.newSender(f.Info),
		next:     from,
		acked:    from,
		nextTime: now,
		progress: now,
		lastFB:   now,
	}
	s.rtoFn = func() { h.checkRTO(s) }
	h.sending = append(h.sending, s)
	f.send = s
	h.armRTO(s)
}

// stopSend tears s down: its CC sender closes, its RTO timer cancels and
// its flow lets go of it. The caller drops it from h.sending.
func (h *Host) stopSend(s *sendState) {
	if closer, ok := s.sender.(interface{ Close() }); ok {
		closer.Close()
	}
	s.rtoEv.Cancel()
	s.flow.send = nil
}

// ActiveSends reports in-progress sender-side flows (for tests).
func (h *Host) ActiveSends() int { return len(h.sending) }

// sendOf returns the sender state of flow id when this host is its source and
// the flow is actively sending; nil otherwise — only the owning host answers.
func (h *Host) sendOf(id pkt.FlowID) *sendState {
	if f := h.table.Get(id); f != nil && f.Info.Src == h.cfg.ID {
		return f.send
	}
	return nil
}

// Next implements link.Source: control frames first, then round-robin over
// eligible (pacing-permitted) flows.
func (h *Host) Next(paused *[pkt.NumClasses]bool) *pkt.Packet {
	if !paused[pkt.ClassControl] {
		if p := h.ctl.Pop(); p != nil {
			return p
		}
	}
	if paused[pkt.ClassData] || len(h.sending) == 0 {
		return nil
	}
	now := h.Eng.Now()
	n := len(h.sending)
	var earliest sim.Time = -1
	for i := 0; i < n; i++ {
		idx := (h.rr + i) % n
		s := h.sending[idx]
		if s.done || s.next >= s.flow.Info.Size {
			continue
		}
		if s.nextTime <= now {
			h.rr = (idx + 1) % n
			return h.emit(s, now)
		}
		if earliest < 0 || s.nextTime < earliest {
			earliest = s.nextTime
		}
	}
	if earliest >= 0 {
		h.scheduleWake(earliest)
	}
	return nil
}

func (h *Host) emit(s *sendState, now sim.Time) *pkt.Packet {
	size := s.flow.Info.Size - s.next
	if size > int64(h.cfg.MTU) {
		size = int64(h.cfg.MTU)
	}
	p := h.Pool.NewData(s.flow.Info.ID, s.flow.Info.Src, s.flow.Info.Dst, s.next, int(size))
	p.EchoTS = now
	h.aud.OnInject(s.flow.Info.ID, p.Seq, int(size))
	if h.fr != nil {
		h.fr.Record(metrics.Event{T: now, Kind: metrics.EvSend,
			Node: int16(h.cfg.ID), Flow: int32(p.Flow), Val: p.Seq})
	}
	if s.next == s.acked {
		// The outstanding window opens with this frame: start the no-progress
		// clock here, not at flow start, so time spent parked with nothing on
		// the wire (e.g. behind a down egress port) never looks like a stall.
		// The watchdog's silence clock restarts for the same reason: no
		// feedback was owed while nothing was outstanding.
		s.progress = now
		s.lastFB = now
	}
	s.next += size
	if s.next >= s.flow.Info.Size {
		p.Last = true
	}
	base := s.nextTime
	if now > base {
		base = now
	}
	s.nextTime = base + sim.TxTime(int(size), h.pacingRate(s, now))
	h.SentData++
	return p
}

func (h *Host) scheduleWake(at sim.Time) {
	if h.wakeEv.Active() && h.wakeAt <= at && h.wakeAt > h.Eng.Now() {
		return
	}
	h.wakeEv.Cancel()
	h.wakeAt = at
	h.wakeEv = h.Eng.At(at, h.kick)
}

// Receive implements link.Endpoint.
func (h *Host) Receive(p *pkt.Packet, on *link.Port) {
	switch p.Kind {
	case pkt.Data:
		h.onData(p)
	case pkt.Ack, pkt.CNP, pkt.SwitchINT:
		h.onFeedback(p)
	default:
		h.Pool.Put(p)
	}
}

// onFeedback screens an incoming feedback frame through the fault filter
// (after the port's Rx accounting, so link conservation books stay balanced),
// then delivers it — immediately, or after the filter's imposed delay.
func (h *Host) onFeedback(p *pkt.Packet) {
	if h.fbFilter != nil {
		drop, delay, corrupts := h.fbFilter(h.Eng.Now(), p)
		h.FBCorrupted += int64(corrupts)
		if drop {
			h.FBDropped++
			h.aud.OnFeedbackDrop(p)
			h.Pool.Put(p)
			return
		}
		if delay > 0 {
			h.FBDelayed++
			h.Eng.After(delay, func() { h.deliverFeedback(p) })
			return
		}
	}
	h.deliverFeedback(p)
}

// deliverFeedback validates any carried INT stack and dispatches the frame to
// the flow's CC sender. A structurally invalid stack (corrupted in flight) is
// discarded and counted rather than folded into estimator state; the frame's
// other fields (cumulative ack, ECE) still apply.
func (h *Host) deliverFeedback(p *pkt.Packet) {
	if h.crashed {
		// A frame the fault filter deferred before the host crashed: a dead
		// host processes nothing, so it lands in the void — destroyed and
		// counted like a filter drop, keeping the pool clean.
		h.FBDropped++
		h.aud.OnFeedbackDrop(p)
		h.Pool.Put(p)
		return
	}
	now := h.Eng.Now()
	if len(p.Hops) > 0 && !cc.ValidINTStack(p.Hops) {
		h.InvalidINT++
		if h.fr != nil {
			h.fr.Record(metrics.Event{T: now, Kind: metrics.EvFBInvalid,
				Node: int16(h.cfg.ID), Port: 0, Flow: int32(p.Flow), Val: int64(len(p.Hops))})
		}
		p.ClearHops()
	}
	switch p.Kind {
	case pkt.Ack:
		h.onAck(p)
	case pkt.CNP:
		if s := h.sendOf(p.Flow); s != nil {
			h.noteFeedback(s, now)
			s.sender.OnCNP(now)
			h.recordRate(s)
		}
		h.Pool.Put(p)
	case pkt.SwitchINT:
		if s := h.sendOf(p.Flow); s != nil {
			h.noteFeedback(s, now)
			s.sender.OnSwitchINT(now, p)
			h.recordRate(s)
		}
		h.Pool.Put(p)
	default:
		h.Pool.Put(p)
	}
}

func (h *Host) onData(p *pkt.Packet) {
	now := h.Eng.Now()
	h.RecvData++
	flow := h.table.Get(p.Flow)
	if flow == nil {
		panic(fmt.Sprintf("host %d: data for unknown flow %d", h.cfg.ID, p.Flow))
	}
	rs := flow.recv
	if rs == nil {
		rs = &recvState{flow: flow}
		if h.newReceiver != nil {
			rs.rcv = h.newReceiver(flow.Info)
		}
		flow.recv = rs
	}
	flow.RxBytes += int64(p.Size)
	h.aud.OnDeliver(p.Flow, p.Seq, int(p.Size))
	if h.fr != nil {
		h.fr.Record(metrics.Event{T: now, Kind: metrics.EvDeliver,
			Node: int16(h.cfg.ID), Flow: int32(p.Flow), Val: p.Seq})
	}

	switch {
	case p.Seq == rs.got:
		rs.got += int64(p.Size)
	case p.Seq > rs.got:
		h.OutOfOrder++ // gap: dup-ack below triggers go-back-N at the sender
	default:
		// duplicate of already-received data; ack again
	}

	ack := h.Pool.NewControl(pkt.Ack, p.Flow, h.cfg.ID, p.Src)
	ack.Seq = rs.got
	ack.EchoTS = p.EchoTS
	ack.ECE = p.CE
	if rs.rcv != nil {
		rs.rcv.OnData(now, p, ack)
	}
	// The ACK echoes the INT stack by trading stacks with p, which is freed
	// below — only now, because the receiver above reads p.Hops.
	ack.Hops, p.Hops = p.Hops, ack.Hops
	if rs.got >= flow.Info.Size && !flow.Done {
		flow.Done = true
		flow.FinishAt = now
		ack.Last = true
		h.aud.OnFlowDone(p.Flow)
		if h.OnFlowDone != nil {
			h.OnFlowDone(flow)
		}
	}
	h.ctl.Push(ack)

	// DCQCN: echo CE marks as CNPs, paced per flow.
	if p.CE && h.cfg.CNPInterval > 0 && (!rs.hasCNP || now-rs.lastCNP >= h.cfg.CNPInterval) {
		rs.lastCNP = now
		rs.hasCNP = true
		cnp := h.Pool.NewControl(pkt.CNP, p.Flow, h.cfg.ID, p.Src)
		if h.fr != nil {
			h.fr.Record(metrics.Event{T: now, Kind: metrics.EvCNP,
				Node: int16(h.cfg.ID), Port: 0, Flow: int32(p.Flow)})
		}
		h.ctl.Push(cnp)
	}

	h.Pool.Put(p)
	h.port.Kick()
}

func (h *Host) onAck(p *pkt.Packet) {
	now := h.Eng.Now()
	s := h.sendOf(p.Flow)
	if s == nil {
		h.Pool.Put(p)
		return
	}
	if p.Seq > s.acked {
		h.aud.OnAckAdvance(p.Flow, s.acked, p.Seq)
		h.ackedTotal += p.Seq - s.acked
		s.acked = p.Seq
		s.progress = now
		s.backoff = 0 // forward progress resets the backoff and the budget
		s.retrans = 0
	}
	h.noteFeedback(s, now)
	s.sender.OnAck(now, p)
	if h.fr != nil {
		h.fr.Record(metrics.Event{T: now, Kind: metrics.EvAck,
			Node: int16(h.cfg.ID), Port: 0, Flow: int32(p.Flow), Val: s.acked})
		h.recordRate(s)
	}
	if s.acked >= s.flow.Info.Size && !s.done {
		s.done = true
		h.finishSend(s)
	}
	h.Pool.Put(p)
}

// noteFeedback feeds the watchdog's silence clock: every feedback frame
// stamps lastFB and, if the flow had decayed, unwinds one halving —
// multiplicative recovery paced by the feedback stream itself, so a trickle
// of surviving frames recovers slowly and a healthy stream recovers fast.
func (h *Host) noteFeedback(s *sendState, now sim.Time) {
	if h.cfg.FBWatchdogK <= 0 {
		return
	}
	s.lastFB = now
	if s.wdShift > 0 {
		s.wdShift--
		h.WatchdogRecovers++
		if h.fr != nil {
			h.fr.Record(metrics.Event{T: now, Kind: metrics.EvWatchdog,
				Node: int16(h.cfg.ID), Port: 0, Flow: int32(s.flow.Info.ID), Val: int64(s.wdShift)})
		}
	}
}

// pacingRate is the effective emission rate: the CC sender's rate, decayed by
// the feedback-silence watchdog when armed. With data outstanding and no
// feedback for max(K·BaseRTT, RTOMin), the rate halves once per further
// silent RTT, flooring at cc.MinRate — the sender stops trusting a stale
// rate it can no longer confirm. Disarmed (K ≤ 0) this is exactly
// s.sender.Rate().
func (h *Host) pacingRate(s *sendState, now sim.Time) sim.Rate {
	rate := s.sender.Rate()
	if h.cfg.FBWatchdogK <= 0 {
		return rate
	}
	rtt := s.flow.Info.BaseRTT
	if rtt > 0 && s.next > s.acked {
		silence := now - s.lastFB
		// Floored at RTOMin like the go-back-N timer: on a µs RTT, K·RTT is
		// shorter than a slow flow's own packet spacing.
		thresh := max(sim.Time(h.cfg.FBWatchdogK)*rtt, h.cfg.RTOMin)
		if silence >= thresh {
			shift := 1 + int((silence-thresh)/rtt)
			if shift > wdMaxShift {
				shift = wdMaxShift
			}
			if shift > s.wdShift {
				h.WatchdogDecays += int64(shift - s.wdShift)
				s.wdShift = shift
				if h.fr != nil {
					h.fr.Record(metrics.Event{T: now, Kind: metrics.EvWatchdog,
						Node: int16(h.cfg.ID), Port: 0, Flow: int32(s.flow.Info.ID), Val: int64(shift)})
				}
			}
		}
	}
	if s.wdShift > 0 {
		rate >>= uint(s.wdShift)
		if rate < cc.MinRate {
			rate = cc.MinRate
		}
	}
	return rate
}

// recordRate flight-records the flow's pacing rate after a CC callback,
// when the callback changed it.
func (h *Host) recordRate(s *sendState) {
	if h.fr == nil {
		return
	}
	rate := int64(s.sender.Rate())
	if rate == s.lastRate {
		return
	}
	s.lastRate = rate
	h.fr.Record(metrics.Event{T: h.Eng.Now(), Kind: metrics.EvRateUpdate,
		Node: int16(h.cfg.ID), Port: 0, Flow: int32(s.flow.Info.ID), Val: rate})
}

func (h *Host) finishSend(s *sendState) {
	h.stopSend(s)
	for i, x := range h.sending {
		if x == s {
			h.sending = append(h.sending[:i], h.sending[i+1:]...)
			break
		}
	}
	if h.rr >= len(h.sending) {
		h.rr = 0
	}
}

// rto returns the flow's current retransmission timeout: the base (4×RTT,
// floored at RTOMin) shifted left by the consecutive-timeout backoff
// exponent and capped at RTOMax — but never below the base, so a small cap
// cannot make timeouts fire faster than a fresh flow's.
func (h *Host) rto(s *sendState) sim.Time {
	rto := 4 * s.flow.Info.BaseRTT
	if rto < h.cfg.RTOMin {
		rto = h.cfg.RTOMin
	}
	if s.backoff > 0 {
		backed := rto << s.backoff
		if backed > h.cfg.RTOMax {
			backed = h.cfg.RTOMax
		}
		if backed > rto {
			rto = backed
		}
	}
	return rto
}

func (h *Host) armRTO(s *sendState) {
	s.rtoEv = h.Eng.After(h.rto(s), s.rtoFn)
}

// checkRTO implements go-back-N: if no cumulative-ack progress for one RTO
// while data is outstanding, rewind to the last acked byte. Each
// consecutive timeout doubles the RTO (capped at RTOMax) and spends one
// unit of the retransmission budget; exhausting the budget aborts the flow.
// An idle flow (nothing outstanding — e.g. parked behind a down egress
// port) spends nothing and keeps its timer armed.
func (h *Host) checkRTO(s *sendState) {
	if s.done {
		return
	}
	now := h.Eng.Now()
	if s.next > s.acked && now-s.progress >= h.rto(s) {
		if h.cfg.MaxRetrans >= 0 && s.retrans >= h.cfg.MaxRetrans {
			h.abort(s)
			return
		}
		s.retrans++
		if s.backoff < 20 { // 2^20 × base saturates any practical RTOMax
			s.backoff++
		}
		s.next = s.acked
		s.nextTime = now
		s.progress = now
		h.Retransmits++
		h.port.Kick()
	}
	h.armRTO(s)
}

// abort gives up on a flow after its retransmission budget: the flow is
// flagged and counted, then torn down exactly like a completion so its
// sender closes, its RTO timer cancels and its pacing slot frees. Receiver
// state stays; any late data is acked harmlessly and returns to the pool.
func (h *Host) abort(s *sendState) {
	s.done = true
	s.flow.Aborted = true
	s.flow.AbortAt = h.Eng.Now()
	h.aud.OnFlowAbort(s.flow.Info.ID)
	h.Aborted++
	h.finishSend(s)
}

// ReceivedBytes reports contiguous bytes received for a flow (tests).
func (h *Host) ReceivedBytes(id pkt.FlowID) int64 {
	if f := h.table.Get(id); f != nil && f.Info.Dst == h.cfg.ID && f.recv != nil {
		return f.recv.got
	}
	return 0
}

// Crash models a host power loss. The NIC cable is cut in both directions
// through SetDown — which destroys in-flight frames at their would-be arrival
// times, folds any open PFC pause interval into PausedTotal and clears the
// pause state, so a crash while paused cannot strand PausedTotalAt
// accounting. Sender-side go-back-N state is torn down pool-clean: pacing and
// RTO timers cancel, CC senders close, queued control frames return to the
// pool, and every in-progress flow parks with its acked prefix as the
// checkpoint Restart resumes from. Flows stay un-Done and un-Aborted;
// receiver-side reassembly state is retained (the acked prefix is durable on
// both sides, mirroring the audit ledger's monotone replicas). Idempotent.
func (h *Host) Crash() {
	if h.crashed {
		return
	}
	h.crashed = true
	h.Crashes++
	h.port.SetDown(true)
	if peer := h.port.Peer(); peer != nil {
		peer.SetDown(true)
	}
	h.wakeEv.Cancel()
	for p := h.ctl.Pop(); p != nil; p = h.ctl.Pop() {
		h.Pool.Put(p)
	}
	for _, s := range h.sending {
		h.stopSend(s)
		h.parked = append(h.parked, parkedFlow{flow: s.flow, acked: s.acked})
	}
	h.sending = h.sending[:0]
	h.rr = 0
}

// Restart powers a crashed host back on: the NIC comes up in both directions
// and every parked flow's go-back-N state is rebuilt from its acked
// checkpoint — next = acked, a fresh CC sender, zeroed RTO backoff and
// retransmission budget. The audit ledger is NOT re-told about the flow
// (OnFlowStart twice is a violation); the rebuilt state resumes the same
// transfer. The progress and watchdog clocks restart when the first frame
// reopens the window (see emit), so time spent crashed never reads as a
// stall. A flow the receiver completed while the host was down resumes too:
// the receiver's cumulative ACK finishes it, as it would a real NIC's.
// Idempotent.
func (h *Host) Restart() {
	if !h.crashed {
		return
	}
	h.crashed = false
	h.Restarts++
	h.port.SetDown(false)
	if peer := h.port.Peer(); peer != nil {
		peer.SetDown(false)
	}
	for _, pf := range h.parked {
		if !pf.flow.Aborted {
			h.startSend(pf.flow, pf.acked)
		}
	}
	h.parked = nil
	h.port.Kick()
}

// Crashed reports whether the host is currently powered off.
func (h *Host) Crashed() bool { return h.crashed }

// ParkedFlows reports sender-side flows parked by a crash (tests).
func (h *Host) ParkedFlows() int { return len(h.parked) }

// AckedBytes reports cumulative acknowledged payload bytes across all of this
// host's sender-side flows — monotone across crashes and restarts. This is
// the guard plane's progress signal (guard.Progress).
func (h *Host) AckedBytes() int64 { return h.ackedTotal }

// OutstandingBytes reports un-acked bytes inside the go-back-N windows of
// active sender-side flows. Parked (crashed) and finished flows contribute
// nothing. This is the guard plane's "work exists" signal (guard.Progress).
func (h *Host) OutstandingBytes() int64 {
	var sum int64
	for _, s := range h.sending {
		if s.next > s.acked {
			sum += s.next - s.acked
		}
	}
	return sum
}
