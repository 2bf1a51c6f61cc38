// Package hpcc implements HPCC (Li et al., SIGCOMM 2019): per-ACK INT-driven
// window control targeting η link utilization. The heavy lifting — the
// MeasureInflight estimator and the ComputeWind reference-window state
// machine — lives in internal/cc's UtilEstimator/WindowController, which MLCC
// reuses for its segment-local loops; this package binds them end-to-end.
package hpcc

import (
	"mlcc/internal/cc"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// Params holds HPCC knobs; defaults are the paper's recommended values.
type Params struct {
	eta      float64 // target utilization η
	maxStage int     // additive-increase stages per MI
}

// DefaultParams returns η=0.95, maxStage=5.
func DefaultParams() Params { return Params{eta: 0.95, maxStage: 5} }

// New returns a SenderFactory running HPCC with params p.
func New(p Params) cc.SenderFactory {
	return func(f cc.FlowInfo) cc.Sender {
		return &sender{
			ctl: cc.NewWindowController(f.BaseRTT, f.LinkRate, f.MTU, p.eta, p.maxStage),
		}
	}
}

type sender struct {
	ctl   *cc.WindowController
	acked int64
}

// Rate implements cc.Sender: the HPCC window paced over the base RTT.
func (s *sender) Rate() sim.Rate { return s.ctl.Rate() }

// OnAck feeds the ACK's INT stack to the window controller.
func (s *sender) OnAck(now sim.Time, ack *pkt.Packet) {
	if ack.Seq > s.acked {
		s.acked = ack.Seq
	}
	s.ctl.OnFeedback(ack.Hops, s.acked)
}

// OnCNP is a no-op: HPCC ignores ECN.
func (s *sender) OnCNP(now sim.Time) {}

// OnSwitchINT is a no-op for plain HPCC.
func (s *sender) OnSwitchINT(now sim.Time, p *pkt.Packet) {}
