// Package core implements MLCC — Micro Loop Congestion Control — the
// contribution of "Efficient Cross-Datacenter Congestion Control with Fast
// Control Loops" (ICPP 2025).
//
// MLCC splits the long cross-datacenter control loop into three loops:
//
//   - Near-source loop (§3.2.1): the sender-side DCI switch reflects the INT
//     records accumulated inside the sender-side datacenter back to the
//     sender as Switch-INT frames; the sender derives a fair sender-side
//     rate R_NS from them (this package's sender).
//   - Receiver-driven loop (§3.2.2, Algorithm 1): the receiver runs the
//     credit-driven algorithm against the per-flow queues (PFQ) at the
//     receiver-side DCI switch and publishes the PFQ dequeue rate R_credit
//     on ACKs (this package's Receiver).
//   - End-to-end loop (§3.3, Algorithm 2): the receiver-side DCI switch runs
//     the DQM queue-management algorithm and stamps the smoothed end-to-end
//     rate R̄_DQM onto ACKs (this package's DQM, wired up by internal/dci).
//
// The sender's final pacing rate is R_MLCC = min(R_NS, R̄_DQM) (Eq. 10).
// Intra-datacenter MLCC flows use the same INT fair-rate controller
// end-to-end — their RTT is already one datacenter RTT, so the loop is
// inherently "micro".
package core

import (
	"mlcc/internal/cc"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// Params holds MLCC knobs. The control loops reuse the HPCC-style
// utilization estimator (η target, additive stages); the DQM knobs follow
// Table 1 and §4.1 of the paper.
type Params struct {
	eta      float64 // target utilization of the micro-loop controllers
	maxStage int     // additive-increase stages per controller update window

	DQM DQMParams

	// Ablation switches (not part of the paper's design; used by the
	// "ablation" experiment to quantify each loop's contribution).
	DisableNearSource bool // ignore Switch-INT: R_NS stays at line rate
	DisableDQM        bool // ignore R̄_DQM from ACKs
}

// DefaultParams returns the evaluation configuration from the paper
// (η=0.95, maxStage=5; θ=18 ms, D_t=1 ms, m=5, α=0.5).
func DefaultParams() Params {
	return Params{
		eta:      0.95,
		maxStage: 5,
		DQM:      DefaultDQMParams(),
	}
}

// NewSender returns the sender-side MLCC factory.
func NewSender(p Params) cc.SenderFactory {
	return func(f cc.FlowInfo) cc.Sender {
		s := &sender{flow: f, rDQM: f.LinkRate, p: p}
		if f.CrossDC {
			t := f.NearRTT
			if t <= 0 {
				t = f.BaseRTT
			}
			s.ns = cc.NewWindowController(t, f.LinkRate, f.MTU, p.eta, p.maxStage)
		} else {
			s.ns = cc.NewWindowController(f.BaseRTT, f.LinkRate, f.MTU, p.eta, p.maxStage)
		}
		return s
	}
}

// sender is the per-flow MLCC rate controller at the sending host.
type sender struct {
	flow cc.FlowInfo
	p    Params

	ns      *cc.WindowController // near-source loop (cross) or end-to-end (intra)
	nsBytes int64                // monotone feedback byte counter for the controller

	rDQM sim.Rate // latest R̄_DQM from ACKs (cross-DC only)
}

// Rate implements cc.Sender: Eq. 10, R_MLCC = min(R_NS, R̄_DQM).
func (s *sender) Rate() sim.Rate {
	r := s.ns.Rate()
	if s.flow.CrossDC && s.rDQM < r {
		r = s.rDQM
	}
	return sim.ClampRate(r, cc.MinRate, s.flow.LinkRate)
}

// OnSwitchINT feeds near-source INT (sender-side datacenter hops) reflected
// by the sender-side DCI switch into the R_NS controller.
func (s *sender) OnSwitchINT(now sim.Time, p *pkt.Packet) {
	if s.p.DisableNearSource {
		return
	}
	s.nsBytes += int64(s.flow.MTU)
	s.ns.OnFeedback(p.Hops, s.nsBytes)
}

// OnAck consumes R̄_DQM for cross-DC flows; for intra-DC flows the echoed
// INT drives the end-to-end micro loop.
func (s *sender) OnAck(now sim.Time, ack *pkt.Packet) {
	if s.flow.CrossDC {
		if ack.Rate > 0 && !s.p.DisableDQM {
			s.rDQM = sim.ClampRate(ack.Rate, cc.MinRate, s.flow.LinkRate)
		}
		return
	}
	if ack.Seq > s.nsBytes {
		s.nsBytes = ack.Seq
	}
	s.ns.OnFeedback(ack.Hops, s.nsBytes)
}

// OnCNP is a no-op: MLCC does not rely on ECN.
func (s *sender) OnCNP(now sim.Time) {}

// NewReceiver returns the receiver-side factory implementing the
// credit-driven algorithm (Algorithm 1).
func NewReceiver(p Params) cc.ReceiverFactory {
	return func(f cc.FlowInfo) cc.Receiver {
		if !f.CrossDC {
			return nil // intra-DC flows need no receiver logic
		}
		t := f.FarRTT
		if t <= 0 {
			t = f.NearRTT
		}
		if t <= 0 {
			t = f.BaseRTT
		}
		return &Receiver{
			ctl: cc.NewWindowController(t, f.LinkRate, f.MTU, p.eta, p.maxStage),
		}
	}
}

// Receiver implements Algorithm 1 (credit-driven algorithm) at the receiving
// host. It tracks the credit C_R, matches it against the C_D stamped into
// data packets by the receiver-side DCI switch, and on every credit round
// (one intra-DC RTT) publishes a fresh PFQ dequeue rate R_credit computed
// from the receiver-side datacenter's INT records.
type Receiver struct {
	ctl *cc.WindowController

	cr      uint32
	acked   int64
	rounds  int64 // completed credit rounds (for tests)
	rcredit sim.Rate
}

// Rounds reports how many credit rounds have completed.
func (r *Receiver) Rounds() int64 { return r.rounds }

// OnData implements cc.Receiver. data.Hops[0] is the receiver-side DCI
// switch's own PFQ record (managed by DQM, excluded here); the remaining
// hops are the receiver-side datacenter switches whose congestion the credit
// loop controls.
func (r *Receiver) OnData(now sim.Time, data *pkt.Packet, ack *pkt.Packet) {
	r.acked += int64(data.Size)
	if len(data.Hops) > 1 {
		r.ctl.OnFeedback(data.Hops[1:], r.acked)
	}
	if data.CD == r.cr {
		// One datacenter RTT has elapsed since the DCI switch saw our last
		// credit: advance the credit and publish a fresh dequeue rate.
		r.cr++
		r.rounds++
		r.rcredit = r.ctl.Rate()
		ack.Rate = r.rcredit // R_credit, for the receiver-side DCI switch
	}
	ack.CR = r.cr
}
