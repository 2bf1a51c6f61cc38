// Package powertcp implements PowerTCP (Addanki, Michel, Schmid, NSDI 2022)
// in its INT form, Algorithm 1 (θ-PowerTCP is the paper's RTT-only variant
// for fabrics without INT, not this one): each ACK's telemetry yields a
// normalized "power" per hop — current (arrival rate, including the
// queue-growth term) times voltage (queue backlog plus BDP) over the base
// power C²τ — and the window is γ-smoothed toward w/Γ + β.
//
// Where it departs from Algorithm 1 (TestPowerTCPConformanceVectors holds
// each with a hand-computed row): the window updates on every ACK from the
// current w, not once per RTT from w_old; τ is the flow's own base RTT at
// every hop, which matches the single-bottleneck deployments evaluated in
// both the PowerTCP and MLCC papers; and the window is clamped to
// [MinRate·RTT, BDP].
package powertcp

import (
	"mlcc/internal/cc"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// Params holds PowerTCP knobs; defaults follow the paper.
type Params struct {
	gamma float64 // EWMA smoothing for the window update
	beta  float64 // additive increase in MTUs (β = beta·MTU bytes)
}

// DefaultParams returns γ=0.9, β=1 MTU.
func DefaultParams() Params { return Params{gamma: 0.9, beta: 1} }

// New returns a SenderFactory running PowerTCP with params p.
func New(p Params) cc.SenderFactory {
	return func(f cc.FlowInfo) cc.Sender {
		bdp := float64(sim.BDPBytes(f.LinkRate, f.BaseRTT))
		return &sender{
			p: p, flow: f,
			w:    bdp,
			maxW: bdp,
			minW: float64(sim.BDPBytes(cc.MinRate, f.BaseRTT)),
			beta: p.beta * float64(f.MTU),
		}
	}
}

type sender struct {
	p    Params
	flow cc.FlowInfo

	w          float64 // window, bytes
	maxW, minW float64
	beta       float64
	last       []pkt.INTHop
	init       bool
}

// Rate implements cc.Sender.
func (s *sender) Rate() sim.Rate {
	r := sim.Rate(s.w * 8 / s.flow.BaseRTT.Seconds())
	return sim.ClampRate(r, cc.MinRate, s.flow.LinkRate)
}

// OnCNP is a no-op.
func (s *sender) OnCNP(now sim.Time) {}

// OnSwitchINT is a no-op for plain PowerTCP.
func (s *sender) OnSwitchINT(now sim.Time, p *pkt.Packet) {}

// OnAck computes the normalized power Γ across hops and applies the
// γ-smoothed window update w ← γ(w/Γ + β) + (1−γ)w.
//
// Corruption guards mirror cc.UtilEstimator.update: a structurally invalid
// stack, or one whose per-hop TS or TxBytes regressed against the remembered
// baseline, is rejected WITHOUT overwriting s.last — folding it in would make
// the next honest sample compute garbage deltas.
func (s *sender) OnAck(now sim.Time, ack *pkt.Packet) {
	hops := ack.Hops
	if len(hops) == 0 || !cc.ValidINTStack(hops) {
		return
	}
	if !s.init || !cc.SameHops(s.last, hops) {
		s.last = append(s.last[:0], hops...)
		s.init = true
		return
	}
	for i := range hops {
		cur, prev := &hops[i], &s.last[i]
		if cur.TS < prev.TS || cur.TxBytes < prev.TxBytes {
			return
		}
	}
	tau := s.flow.BaseRTT.Seconds()
	gamma := 0.0 // normalized power Γ
	for i := range hops {
		cur, prev := &hops[i], &s.last[i]
		dt := (cur.TS - prev.TS).Seconds()
		if dt <= 0 {
			continue
		}
		c := float64(cur.Band) // bits/s
		txRate := float64(cur.TxBytes-prev.TxBytes) * 8 / dt
		qGrad := float64(cur.QLen-prev.QLen) * 8 / dt
		current := txRate + qGrad // λ: arrival rate at the hop, bits/s
		if current < 0 {
			current = 0
		}
		voltage := float64(cur.QLen)*8 + c*tau // bits
		power := current * voltage
		base := c * c * tau
		if p := power / base; p > gamma {
			gamma = p
		}
	}
	s.last = append(s.last[:0], hops...)
	if gamma <= 0 {
		return
	}
	s.w = s.p.gamma*(s.w/gamma+s.beta) + (1-s.p.gamma)*s.w
	if s.w > s.maxW {
		s.w = s.maxW
	}
	if s.w < s.minW {
		s.w = s.minW
	}
}
