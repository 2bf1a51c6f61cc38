// Package timely implements TIMELY (Mittal et al., SIGCOMM 2015): RTT-
// gradient congestion control. The sender measures per-ACK RTTs from echoed
// timestamps, smooths the RTT difference with an EWMA, and adjusts its rate
// additively when the gradient is non-positive (with hyperactive increase
// after N consecutive decreases of RTT) and multiplicatively when positive,
// bounded by the Tlow/Thigh guard bands.
package timely

import (
	"mlcc/internal/cc"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// Params holds TIMELY knobs, defaulting to the paper's recommendations.
type Params struct {
	tLow     sim.Time // below this RTT: pure additive increase
	tHigh    sim.Time // above this RTT: multiplicative decrease regardless of gradient
	ewma     float64  // α for the RTT-diff ewma
	addStep  sim.Rate // δ additive increment
	beta     float64  // multiplicative decrease factor
	haiAfter int      // consecutive gradient<=0 samples before hyperactive increase
	haiMax   int      // max HAI multiplier
}

// DefaultParams returns the native recommended configuration.
func DefaultParams() Params {
	return Params{
		tLow:     50 * sim.Microsecond,
		tHigh:    500 * sim.Microsecond,
		ewma:     0.875,
		addStep:  50 * sim.Mbps,
		beta:     0.8,
		haiAfter: 5,
		haiMax:   5,
	}
}

// New returns a SenderFactory running TIMELY with params p.
func New(p Params) cc.SenderFactory {
	return func(f cc.FlowInfo) cc.Sender {
		return &sender{p: p, flow: f, rate: f.LinkRate}
	}
}

type sender struct {
	p    Params
	flow cc.FlowInfo // flow.BaseRTT is minRTT, the gradient's normalization base

	rate     sim.Rate
	prevRTT  sim.Time
	rttDiff  float64 // smoothed RTT difference, seconds
	haveRTT  bool
	negCount int
	lastUpd  sim.Time
	lastEcho sim.Time // newest echoed send timestamp seen
	haveEcho bool
}

// Rate implements cc.Sender.
func (s *sender) Rate() sim.Rate { return s.rate }

// OnCNP is a no-op: TIMELY is purely delay-based.
func (s *sender) OnCNP(now sim.Time) {}

// OnSwitchINT is a no-op.
func (s *sender) OnSwitchINT(now sim.Time, p *pkt.Packet) {}

// OnAck folds one RTT sample into the gradient engine. Updates are gated to
// one per minRTT so a burst of ACKs counts as one decision, as in the paper's
// completion-event formulation.
func (s *sender) OnAck(now sim.Time, ack *pkt.Packet) {
	if ack.EchoTS == 0 {
		return
	}
	rtt := now - ack.EchoTS
	if rtt <= 0 {
		return
	}
	if s.haveEcho && ack.EchoTS < s.lastEcho {
		// Reordered ACK: it echoes an older send than one already folded in,
		// so its delivery delay is not this path's current RTT — a burst of
		// such stale samples would read as a spurious positive gradient.
		return
	}
	s.lastEcho = ack.EchoTS
	s.haveEcho = true
	if !s.haveRTT {
		s.prevRTT = rtt
		s.haveRTT = true
		return
	}
	newDiff := (rtt - s.prevRTT).Seconds()
	s.prevRTT = rtt
	s.rttDiff = (1-s.p.ewma)*s.rttDiff + s.p.ewma*newDiff
	if now-s.lastUpd < s.flow.BaseRTT {
		return
	}
	s.lastUpd = now
	gradient := s.rttDiff / s.flow.BaseRTT.Seconds()

	switch {
	case rtt < s.p.tLow:
		s.negCount = 0
		s.rate += s.p.addStep
	case rtt > s.p.tHigh:
		s.negCount = 0
		// Decrease proportionally to how far beyond Thigh the RTT sits.
		factor := 1 - s.p.beta*(1-float64(s.p.tHigh)/float64(rtt))
		s.rate = sim.Rate(float64(s.rate) * factor)
	case gradient <= 0:
		s.negCount++
		n := 1
		if s.negCount >= s.p.haiAfter {
			n = s.negCount - s.p.haiAfter + 2
			if n > s.p.haiMax {
				n = s.p.haiMax
			}
		}
		s.rate += sim.Rate(n) * s.p.addStep
	default:
		s.negCount = 0
		factor := 1 - s.p.beta*gradient
		if factor < 0.5 {
			factor = 0.5
		}
		s.rate = sim.Rate(float64(s.rate) * factor)
	}
	s.rate = sim.ClampRate(s.rate, cc.MinRate, s.flow.LinkRate)
}
