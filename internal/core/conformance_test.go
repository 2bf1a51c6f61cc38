package core

import (
	"math"
	"testing"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// conformanceVector is one MLCC rule driven through today's code. It holds
// the rule's value twice: as the paper's equation computes it by hand, and
// as this package computes it today. The DQM rows run at RTT_C = 1 ms and
// RTT_D = 250 µs (n = 4), MTU = 1 000 B (one dw unit is MTU·8/RTT_C =
// 8 Mbps) and Table 1's θ = 18 ms, D_t = 1 ms, m = 5, α = 0.5.
type conformanceVector struct {
	name  string
	run   func() float64
	paper float64
	today float64
	// deviates says why today's value differs from the paper's; empty when
	// they agree.
	deviates string
}

const (
	gbps = float64(sim.Gbps)
	mbps = float64(sim.Mbps)
)

// newTestDQM is a DQM at the rows' geometry whose R_DQM and R_credit
// histories all hold init.
func newTestDQM(init sim.Rate) *DQM {
	p := DefaultDQMParams()
	p.RTTc, p.RTTd = sim.Millisecond, 250*sim.Microsecond
	p.MTU, p.MaxRate = 1000, 100*sim.Gbps
	return NewDQM(p, init)
}

// packetsOut runs k dequeues (Eq. 6–8) at raw target rdqm and dequeue rate
// rcredit, from an empty bucket and dw = 0.
func packetsOut(rdqm, rcredit sim.Rate, k int) *DQM {
	d := newTestDQM(rcredit)
	d.rdqm, d.rcredit = rdqm, rcredit
	for i := 0; i < k; i++ {
		d.OnPacketOut()
	}
	return d
}

// creditRounds feeds a fresh Algorithm 1 receiver one data frame per C_D in
// cds and returns the receiver and the ACKs it stamped.
func creditRounds(cds ...uint32) (*Receiver, []*pkt.Packet) {
	r := NewReceiver(DefaultParams())(crossFlow()).(*Receiver)
	var acks []*pkt.Packet
	for _, cd := range cds {
		ack := &pkt.Packet{Kind: pkt.Ack}
		r.OnData(0, &pkt.Packet{Kind: pkt.Data, Size: 1000, CD: cd}, ack)
		acks = append(acks, ack)
	}
	return r, acks
}

const windup = "DESIGN.md decision 9: dw is bounded to [min(g, 0), max(g, 0)], g = (R_DQM − R_credit)/(MTU·8/RTT_C), so R̄_DQM walks from R_credit toward the Eq. 5 target and never past it; Eq. 8's ±1 per packet is unbounded and saturates at Gbps packet rates"

func mlccVectors() []conformanceVector {
	return []conformanceVector{{
		name: "Eq. 1: n = RTT_C/RTT_D",
		run: func() float64 {
			p := DefaultDQMParams()
			p.RTTc, p.RTTd = 6*sim.Millisecond, 24*sim.Microsecond
			return float64(NewDQM(p, sim.Gbps).n)
		},
		paper: 250, today: 250,
	}, {
		// R_pre_eq = (6 + 8 + 10 + 12)/4 Gbps.
		name: "Eq. 2: R_pre_eq is the mean of the last n R_DQM",
		run: func() float64 {
			d := newTestDQM(8 * sim.Gbps)
			copy(d.rdqmHist, []sim.Rate{6 * sim.Gbps, 8 * sim.Gbps, 10 * sim.Gbps, 12 * sim.Gbps})
			return float64(d.predictedEnqueueRate())
		},
		paper: 9 * gbps, today: 9 * gbps,
	}, {
		// R_pre_eq = 10 G, R_credit = 8 G, Q_c = 0: Q_pre = 2 Gbps × 1 ms =
		// 250 000 B. The mean of the last five R_credit is 9.6 G, so D_pre
		// = 0.208 3 ms and R_DQM = 8 G × (1 + 0.791 6/18) = 8.351 851 85 G.
		name: "Eq. 3: Q_pre adds the enqueue–dequeue gap over RTT_C",
		run: func() float64 {
			return float64(newTestDQM(10*sim.Gbps).OnCreditRound(8*sim.Gbps, 0))
		},
		paper: 8_351_851_851.851852, today: 8_351_851_851,
	}, {
		// R_pre_eq = R_credit = 8 G (no gap); the last five R_credit are
		// 8, 10, 10, 10, 10 G, mean 9.6 G, so Q_c = 1.2 MB is D_pre = 1 ms
		// = D_t and R_DQM = R_credit. Dividing by the current 8 G instead
		// would read 1.2 ms.
		name: "Eq. 4: D_pre = Q_pre over the mean of the last m R_credit",
		run: func() float64 {
			d := newTestDQM(8 * sim.Gbps)
			for i := range d.rcreditHist {
				d.rcreditHist[i] = 10 * sim.Gbps
			}
			return float64(d.OnCreditRound(8*sim.Gbps, 1_200_000))
		},
		paper: 8 * gbps, today: 8 * gbps,
	}, {
		// Q_c = 2.5 MB at 10 G is D_pre = 2 ms: R_DQM = 10 G × (1 − 1/18).
		name: "Eq. 5: R_DQM = R_credit·(1 − (D_pre − D_t)/θ)",
		run: func() float64 {
			return float64(newTestDQM(10*sim.Gbps).OnCreditRound(10*sim.Gbps, 2_500_000))
		},
		paper: 9_444_444_444.444444, today: 9_444_444_444,
	}, {
		// Q_c = 46.25 MB at 10 G is D_pre = 37 ms = D_t + 2θ: the factor
		// is 1 − 36/18 = −1.
		name: "Eq. 5 past D_t + θ",
		run: func() float64 {
			return float64(newTestDQM(10*sim.Gbps).OnCreditRound(10*sim.Gbps, 46_250_000))
		},
		paper: -10 * gbps, today: 10 * mbps,
		deviates: "the factor is floored at 0 and R_DQM clamped to [cc.MinRate, MaxRate], so a flow is slowed to 10 Mbps, never stopped; Eq. 5 has no floor and turns negative past D_t + θ",
	}, {
		// α·R_DQM/R_credit = 0.5 × 12/10 = 0.6 per packet: 0.6, then 1.2,
		// which spends one token and leaves 0.2.
		name: "Eq. 6–7: each packet adds α·R_DQM/R_credit tokens",
		run: func() float64 {
			return packetsOut(12*sim.Gbps, 10*sim.Gbps, 2).token
		},
		paper: 0.2, today: 0.2,
	}, {
		// 0.25 tokens per packet (R_DQM = R_credit/2): dw falls to −3, then
		// the fourth packet fills the bucket and dw rises to −2. The bound
		// g = −625 is far away.
		name: "Eq. 8: dw rises on a spent token and falls otherwise",
		run: func() float64 {
			return packetsOut(5*sim.Gbps, 10*sim.Gbps, 4).dw
		},
		paper: -2, today: -2,
	}, {
		// R_DQM = 2·R_credit = 48 Mbps: one token per packet, so Eq. 8
		// adds 1 per packet, 10 after ten; g = 24 Mbps / 8 Mbps = 3.
		name:     "decision 9: dw stops at the Eq. 5 target above R_credit",
		run:      func() float64 { return packetsOut(48*sim.Mbps, 24*sim.Mbps, 10).dw },
		paper:    10,
		today:    3,
		deviates: windup,
	}, {
		// R_DQM = R_credit/4 = 8 Mbps: 0.125 tokens per packet, so Eq. 8
		// falls to −7, rises at the eighth packet and ends at −8 after ten;
		// g = −24 Mbps / 8 Mbps = −3.
		name:     "decision 9: dw stops at the Eq. 5 target below R_credit",
		run:      func() float64 { return packetsOut(8*sim.Mbps, 32*sim.Mbps, 10).dw },
		paper:    -8,
		today:    -3,
		deviates: windup,
	}, {
		// 10 Gbps − 125 × 8 Mbps.
		name: "Eq. 9: R̄_DQM = R_credit + dw·MTU/RTT_C",
		run: func() float64 {
			d := newTestDQM(10 * sim.Gbps)
			d.dw = -125
			return float64(d.Smoothed())
		},
		paper: 9 * gbps, today: 9 * gbps,
	}, {
		// C_D = 0, 0, 1, 1, 2 against C_R = 0: the first frame of each C_D
		// matches and advances C_R; its repeat arrives with C_D < C_R.
		name: "Algorithm 1: a credit round ends when C_D = C_R",
		run: func() float64 {
			r, _ := creditRounds(0, 0, 1, 1, 2)
			return float64(r.rounds)
		},
		paper: 3, today: 3,
	}, {
		name: "Algorithm 1: R_credit rides the ACK that ends a round",
		run: func() float64 {
			_, acks := creditRounds(0, 0, 1, 1, 2)
			n := 0
			for _, a := range acks {
				if a.Rate > 0 {
					n++
				}
			}
			return float64(n)
		},
		paper: 3, today: 3,
	}, {
		// R_NS starts at the 25 Gbps line rate; an ACK brings R̄_DQM = 5 G.
		name: "Eq. 10: R_MLCC = min(R_NS, R̄_DQM)",
		run: func() float64 {
			s := NewSender(DefaultParams())(crossFlow())
			s.OnAck(0, &pkt.Packet{Kind: pkt.Ack, Rate: 5 * sim.Gbps})
			return float64(s.Rate())
		},
		paper: 5 * gbps, today: 5 * gbps,
	}}
}

// TestMLCCConformanceVectors runs each vector through today's code and
// asserts today's value. A vector without a deviation must hold the paper's
// value too, and one with a deviation must really differ from it. Rates
// (1 Mbps and up) match to within the 1 bit/s that truncating to sim.Rate
// costs; counts, dw and tokens to within float64 rounding.
func TestMLCCConformanceVectors(t *testing.T) {
	near := func(a, b float64) bool {
		d := math.Abs(a - b)
		return d <= 1e-9*math.Max(1, math.Abs(b)) || math.Abs(b) >= mbps && d <= 1
	}
	for _, v := range mlccVectors() {
		t.Run(v.name, func(t *testing.T) {
			got := v.run()
			if !near(got, v.today) {
				t.Errorf("today = %v, want %v", got, v.today)
			}
			switch {
			case v.deviates == "" && !near(v.today, v.paper):
				t.Errorf("today %v differs from the paper's %v with no stated deviation", v.today, v.paper)
			case v.deviates != "" && near(v.today, v.paper):
				t.Errorf("marked deviating (%s) but today %v matches the paper", v.deviates, v.today)
			}
		})
	}
}
