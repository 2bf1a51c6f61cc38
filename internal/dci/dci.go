// Package dci models datacenter-interconnect switches. A DCI switch is a
// deep-buffered fabric switch (hundreds of MB) that, when MLCC is enabled,
// additionally plays both MLCC roles depending on packet direction:
//
//   - Sender-side role (near-source feedback loop, §3.2.1): for data packets
//     leaving through the long-haul port, it reads and clears the INT
//     records accumulated inside the sender-side datacenter and reflects
//     them to the sender in a Switch-INT control frame.
//   - Receiver-side role (receiver-driven loop + DQM, §3.2.2/§3.3): data
//     packets arriving from the long-haul port are stored in dynamically
//     allocated per-flow queues (PFQ) that drain at the receiver-published
//     credit rate R_credit; dequeued packets are stamped with the flow
//     credit C_D and a fresh DCI INT record. ACKs flowing back toward the
//     sender deliver C_R and R_credit to the PFQ, drive the per-flow DQM
//     instance, and leave carrying the smoothed end-to-end rate R̄_DQM.
//
// Without MLCC the type degenerates to a plain deep-buffered fabric.Switch,
// which is exactly how the baselines (DCQCN/Timely/HPCC/PowerTCP) see DCI
// switches in the paper.
package dci

import (
	"mlcc/internal/cc"
	"mlcc/internal/core"
	"mlcc/internal/fabric"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// Config parameterizes a DCI switch.
type Config struct {
	Fabric fabric.Config

	// LongHaulPort is the index of the port facing the other datacenter.
	LongHaulPort int

	// MLCC enables near-source feedback, PFQ and DQM.
	MLCC bool

	// DQM parameters (used when MLCC). RTTc/RTTd/MTU/MaxRate must be set by
	// the topology builder, here or through SetDQM before the first packet.
	DQM core.DQMParams

	// InitRate is the initial PFQ dequeue rate for a new flow (the paper:
	// "the receiver-side DCI-switch sends the flow into the receiver-side
	// datacenter using the initial rate"). Typically the server line rate.
	InitRate sim.Rate
}

// Switch is a DCI switch.
type Switch struct {
	*fabric.Switch
	cfg Config

	pfq    []*pfqFlow // by flow id − 1 (ids are 1..N); nil where a flow holds no PFQ
	active int        // non-nil entries of pfq
	discs  []*PFQDisc // one per DC-facing port (indexed arbitrarily)

	// Counters.
	SwitchINTSent int64 // near-source feedback frames generated
	PFQFlows      int64 // PFQs ever allocated
	DQMUpdates    int64
}

// New builds a DCI switch. Ports are added by the topology builder through
// AddPort (inherited); call Finalize after all ports exist.
func New(eng *sim.Engine, pool *pkt.Pool, cfg Config) *Switch {
	s := &Switch{
		Switch: fabric.New(eng, pool, cfg.Fabric),
		cfg:    cfg,
	}
	return s
}

// SetDQM replaces the DQM parameters. A flow's DQM instance takes them at
// the flow's first packet, so a builder that derives them from the wired
// routes sets them here once routing is done.
func (s *Switch) SetDQM(dq core.DQMParams) { s.cfg.DQM = dq }

// Finalize installs MLCC behaviours once all ports have been added: PFQ
// disciplines on every DC-facing port and the ingress hooks on the switch.
func (s *Switch) Finalize() {
	if !s.cfg.MLCC {
		return
	}
	for i := 0; i < s.NumPorts(); i++ {
		if i == s.cfg.LongHaulPort {
			continue
		}
		d := &PFQDisc{sw: s, port: i}
		s.SetDiscipline(i, d)
		s.discs = append(s.discs, d)
	}
	s.SetHooks(s)
}

// PFQBacklog reports the queued bytes of one flow's PFQ (0 if none).
func (s *Switch) PFQBacklog(id pkt.FlowID) int64 {
	if f := s.flow(id); f != nil {
		return f.q.Bytes()
	}
	return 0
}

// flow returns flow id's PFQ, or nil.
func (s *Switch) flow(id pkt.FlowID) *pfqFlow {
	if i := uint(id - 1); i < uint(len(s.pfq)) { // false for id ≤ 0 too
		return s.pfq[i]
	}
	return nil
}

// release frees f's slot once its PFQ is gone.
func (s *Switch) release(f *pfqFlow) {
	if s.flow(f.id) == f {
		s.pfq[f.id-1] = nil
		s.active--
	}
}

// PFQTotalBacklog reports queued bytes across all PFQs.
func (s *Switch) PFQTotalBacklog() int64 {
	var sum int64
	for _, d := range s.discs {
		sum += d.DataBytes()
	}
	return sum
}

// ActivePFQs reports currently allocated per-flow queues.
func (s *Switch) ActivePFQs() int { return s.active }

// RegisterMetrics registers the embedded fabric instruments plus the DCI's
// MLCC counters and PFQ gauges under prefix (e.g. "dci.dci0").
func (s *Switch) RegisterMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	s.Switch.RegisterMetrics(reg, prefix)
	reg.CounterFunc(prefix+".switch_int_sent", func() int64 { return s.SwitchINTSent })
	reg.CounterFunc(prefix+".pfq_flows", func() int64 { return s.PFQFlows })
	reg.CounterFunc(prefix+".dqm_updates", func() int64 { return s.DQMUpdates })
	reg.GaugeFunc(prefix+".active_pfqs", func() float64 { return float64(s.ActivePFQs()) })
	reg.GaugeFunc(prefix+".pfq_backlog_bytes", func() float64 { return float64(s.PFQTotalBacklog()) })
}

// OnIngress implements fabric.Hooks.
func (s *Switch) OnIngress(p *pkt.Packet, in, out int) bool {
	if out == s.cfg.LongHaulPort {
		switch p.Kind {
		case pkt.Data:
			s.reflectINT(p)
		case pkt.Ack:
			s.applyAck(p)
		}
	}
	return false
}

// reflectINT implements the near-source feedback loop: encapsulate the
// sender-side datacenter's INT records — plus this DCI switch's own
// long-haul egress record, since the inter-DC fiber is the last sender-side
// hop and its queue is otherwise invisible to every loop — in a Switch-INT
// frame to the sender, and clear them from the data packet.
func (s *Switch) reflectINT(p *pkt.Packet) {
	si := s.Pool.NewControl(pkt.SwitchINT, p.Flow, s.ID(), p.Src)
	// Trading stacks moves the records and leaves p the frame's empty one.
	si.Hops, p.Hops = p.Hops, si.Hops
	lh := s.Port(s.cfg.LongHaulPort)
	s.Pool.AddHop(si, pkt.INTHop{
		Node:    s.ID(),
		QLen:    s.DisciplineAt(s.cfg.LongHaulPort).DataBytes(),
		TxBytes: lh.TxBytes,
		TS:      s.Eng.Now(),
		Band:    lh.Rate,
	})
	s.SwitchINTSent++
	s.ForwardTo(si, -1, s.RouteFor(p.Src, p.Flow))
}

// applyAck implements the receiver-side DCI ACK processing: update the PFQ
// credit C_D and dequeue rate from (C_R, R_credit), run one DQM round, and
// stamp R̄_DQM for the sender. R̄_DQM is all a cross-DC sender reads from
// its ACKs — the receiver-side INT they echo was consumed by the credit
// loop at the receiver — so the ACK hands its stack back to this DC's pool
// and crosses the long haul bare.
func (s *Switch) applyAck(p *pkt.Packet) {
	f := s.flow(p.Flow)
	if f == nil {
		return
	}
	f.cd = p.CR
	if p.RCredit > 0 {
		f.rate = sim.ClampRate(p.RCredit, cc.MinRate, f.disc.portRate())
		f.dqm.OnCreditRound(p.RCredit, f.q.Bytes())
		s.DQMUpdates++
		if fr := s.Recorder(); fr != nil {
			fr.Record(metrics.Event{T: s.Eng.Now(), Kind: metrics.EvRateUpdate,
				Node: int32(s.ID()), Port: -1, Flow: int32(p.Flow), Val: int64(f.rate)})
		}
		f.disc.kickSoon()
	}
	p.RDQM = f.dqm.Smoothed()
	s.Pool.StripHops(p)
	if p.Last {
		f.closed = true
		f.disc.maybeRemove(f)
	}
}

// flowFor returns (allocating if needed) the PFQ state for a flow on disc d.
func (s *Switch) flowFor(id pkt.FlowID, d *PFQDisc) *pfqFlow {
	if f := s.flow(id); f != nil {
		return f
	}
	dq := s.cfg.DQM
	if dq.MaxRate <= 0 {
		dq.MaxRate = s.cfg.InitRate
	}
	if dq.MTU <= 0 {
		dq.MTU = pkt.DefaultMTU
	}
	f := &pfqFlow{
		id:   id,
		disc: d,
		rate: s.cfg.InitRate,
		dqm:  core.NewDQM(dq, s.cfg.InitRate),
	}
	for int(id) > len(s.pfq) {
		s.pfq = append(s.pfq, nil)
	}
	s.pfq[id-1] = f
	s.active++
	d.flows = append(d.flows, f)
	s.PFQFlows++
	return f
}
