// Package dcqcn implements DCQCN (Zhu et al., SIGCOMM 2015), the ECN-based
// congestion control used by production RoCE deployments. The receiver
// echoes CE marks as CNPs (rate-limited to one per CNPInterval per flow, in
// internal/host); the sender runs the α-based rate decrease and the fast
// recovery / additive / hyper increase state machine, driven by the standard
// 55 µs timer and a byte counter.
package dcqcn

import (
	"mlcc/internal/cc"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// Params holds DCQCN knobs. Defaults follow the HPCC paper's suggested
// DCQCN configuration for 25/100G fabrics.
type Params struct {
	g           float64  // α gain (1/256)
	alphaTimer  sim.Time // α decay timer (55 µs)
	rateTimer   sim.Time // rate-increase timer (55 µs)
	byteCounter int64    // rate-increase byte counter (10 MB)
	f           int      // fast-recovery stages (5)
	rai         sim.Rate // additive increase (40 Mbps)
	rhai        sim.Rate // hyper increase (200 Mbps)
	CNPInterval sim.Time // receiver-side CNP pacing (50 µs), used by host
}

// DefaultParams returns the standard DCQCN configuration.
func DefaultParams() Params {
	return Params{
		g:           1.0 / 256,
		alphaTimer:  55 * sim.Microsecond,
		rateTimer:   55 * sim.Microsecond,
		byteCounter: 10 << 20,
		f:           5,
		rai:         40 * sim.Mbps,
		rhai:        200 * sim.Mbps,
		CNPInterval: 50 * sim.Microsecond,
	}
}

// New returns a SenderFactory running DCQCN with params p.
func New(eng *sim.Engine, p Params) cc.SenderFactory {
	return func(f cc.FlowInfo) cc.Sender {
		s := &sender{eng: eng, p: p, flow: f,
			rc: f.LinkRate, rt: f.LinkRate, alpha: 1,
		}
		// Bind the tick callbacks once: both timers re-arm on every period
		// (and the rate timer restarts on every CNP), so per-arm method
		// values would allocate on the per-packet path.
		s.alphaFn = s.alphaTick
		s.rateFn = s.rateTick
		s.alphaEv = eng.After(p.alphaTimer, s.alphaFn)
		s.rateEv = eng.After(p.rateTimer, s.rateFn)
		return s
	}
}

type sender struct {
	eng  *sim.Engine
	p    Params
	flow cc.FlowInfo

	rc    sim.Rate // current rate
	rt    sim.Rate // target rate
	alpha float64

	timerStage int
	byteStage  int
	bytesAcked int64 // since last byte-counter stage
	cnpSeen    bool  // CNP within the current α window

	alphaEv sim.Timer
	rateEv  sim.Timer
	alphaFn func()
	rateFn  func()
	closed  bool
}

// Rate implements cc.Sender.
func (s *sender) Rate() sim.Rate { return s.rc }

// OnCNP applies the multiplicative decrease and restarts the increase state
// machine, per the DCQCN rate-decrease rules.
func (s *sender) OnCNP(now sim.Time) {
	if s.closed {
		return
	}
	s.rt = s.rc
	s.rc = sim.Rate(float64(s.rc) * (1 - s.alpha/2))
	s.rc = sim.ClampRate(s.rc, cc.MinRate, s.flow.LinkRate)
	s.alpha = (1-s.p.g)*s.alpha + s.p.g
	s.cnpSeen = true
	s.timerStage = 0
	s.byteStage = 0
	s.bytesAcked = 0
	// Restart the rate timer so the first recovery step is a full period
	// after the decrease.
	s.rateEv.Cancel()
	s.rateEv = s.eng.After(s.p.rateTimer, s.rateFn)
}

// OnAck advances the byte counter; DCQCN ignores INT and RTT signals.
func (s *sender) OnAck(now sim.Time, ack *pkt.Packet) {
	if s.closed {
		return
	}
	s.bytesAcked += int64(s.flow.MTU)
	if s.bytesAcked >= s.p.byteCounter {
		s.bytesAcked = 0
		s.byteStage++
		s.increase()
	}
}

// OnSwitchINT is a no-op: DCQCN does not use near-source feedback.
func (s *sender) OnSwitchINT(now sim.Time, p *pkt.Packet) {}

// Close stops the timers. The host calls it at flow completion.
func (s *sender) Close() {
	s.closed = true
	s.alphaEv.Cancel()
	s.rateEv.Cancel()
}

func (s *sender) alphaTick() {
	if s.closed {
		return
	}
	if !s.cnpSeen {
		s.alpha = (1 - s.p.g) * s.alpha
	}
	s.cnpSeen = false
	s.alphaEv = s.eng.After(s.p.alphaTimer, s.alphaFn)
}

func (s *sender) rateTick() {
	if s.closed {
		return
	}
	s.timerStage++
	s.increase()
	s.rateEv = s.eng.After(s.p.rateTimer, s.rateFn)
}

// increase runs one step of the DCQCN increase state machine.
func (s *sender) increase() {
	switch {
	case s.timerStage < s.p.f && s.byteStage < s.p.f:
		// Fast recovery: climb halfway back to the target.
	case s.timerStage > s.p.f && s.byteStage > s.p.f:
		// Hyper increase.
		s.rt += sim.Rate(s.p.rhai)
	default:
		// Additive increase.
		s.rt += sim.Rate(s.p.rai)
	}
	if s.rt > s.flow.LinkRate {
		s.rt = s.flow.LinkRate
	}
	s.rc = (s.rc + s.rt) / 2
	s.rc = sim.ClampRate(s.rc, cc.MinRate, s.flow.LinkRate)
}
