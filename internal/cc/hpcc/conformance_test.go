package hpcc

import (
	"math"
	"testing"

	"mlcc/internal/cc"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// hopStep is one INT record's change since the previous ACK on the same
// hop: dt after it, at queue length qlen, with dtx more bytes sent. At
// B = 100 Gbps and T = 25 µs, B·T is 312 500 B, so qlen = 312 500 is a
// queue term of 1.0 and dtx = 312 500 over dt = 25 µs a tx-rate term of 1.0.
type hopStep struct {
	dt   sim.Time
	qlen int64
	dtx  int64
}

// ackStep is one ACK: its sequence number and one hopStep per hop.
type ackStep struct {
	seq  int64
	hops []hopStep
}

// conformanceVector drives one fresh HPCC sender through acks, the first of
// which only primes MeasureInflight's per-hop baseline (its dt and dtx are
// ignored), and holds the window W and the smoothed utilization U after the
// last ACK twice: as SIGCOMM'19 Algorithm 1 computes them by hand, and as
// this package computes them today. Every vector sets η = 0.95 and
// maxStage = 5; Algorithm 1's W_AI is one constant for every flow, here
// 781.25 B, today's value for a 25 µs, 25 Gbps flow.
type conformanceVector struct {
	name   string
	rtt    sim.Time // the flow's T; 25 µs when zero
	acks   []ackStep
	paperW float64
	paperU float64
	todayW float64
	todayU float64
	// deviates says why today's window differs from Algorithm 1's; empty
	// when they agree.
	deviates string
}

const (
	bt     = 312_500 // B·T in bytes at 100 Gbps and 25 µs
	us     = sim.Microsecond
	prime  = 0
	winit  = 78_125.0 // 25 Gbps × 25 µs, the line-rate window
	paperA = 781.25   // W_AI
)

// one is an ACK with a single hop.
func one(seq int64, dt sim.Time, qlen, dtx int64) ackStep {
	return ackStep{seq, []hopStep{{dt, qlen, dtx}}}
}

// rollover is five additive-increase stages after a cut to Wc = 39 843.75:
// U = 0.76 (< η) on every ACK, each past the latch.
var rollover = []ackStep{
	one(prime, 0, 281_250, 0),
	// u = min(281 250, 281 250)/B·T + 1.0 = 1.9 ≥ η: W = Wc/(1.9/0.95) + W_AI
	// = 78 125/2 + 781.25 = 39 843.75, latched as Wc.
	one(1_000, 25*us, 281_250, bt),
	// u = min(281 250, 0)/B·T + 237 500/B·T = 0.76: W = Wc + W_AI, latched,
	// incStage 1..5.
	one(100_000, 25*us, 0, 237_500),
	one(200_000, 25*us, 0, 237_500),
	one(300_000, 25*us, 0, 237_500),
	one(400_000, 25*us, 0, 237_500),
	one(500_000, 25*us, 0, 237_500),
}

func hpccVectors() []conformanceVector {
	return []conformanceVector{{
		// Line 13: W = Wc/(U/η) + W_AI = 78 125·0.95 + 781.25.
		name:   "per-ACK W = Wc/(U/η) + W_AI",
		acks:   []ackStep{one(prime, 0, 0, 0), one(1_000, 25*us, 0, bt)},
		paperW: 75_000, paperU: 1, todayW: 75_000, todayU: 1,
	}, {
		// Line 5: the queue term takes min(q(t0), q(t1)) = 31 250, so
		// u = 0.1 + 0.9; q(t1) alone would give u = 1.9 and W = 39 843.75.
		name:   "min(q(t0), q(t1))",
		acks:   []ackStep{one(prime, 0, 31_250, 0), one(1_000, 25*us, bt, 281_250)},
		paperW: 75_000, paperU: 1, todayW: 75_000, todayU: 1,
	}, {
		// ACK 1 cuts to 75 000 and latches Wc. ACK 2 (u = 1 + 1 = 2) is
		// inside the same RTT: W = 75 000/(2/0.95) + 781.25 = 36 406.25, Wc
		// stays. ACK 3 (u = 1) cuts from that Wc: 75 000·0.95 + 781.25; a
		// latched ACK 2 would have given 36 406.25·0.95 + 781.25.
		name: "per-RTT Wc latch: in-RTT ACKs move W, not Wc",
		acks: []ackStep{one(prime, 0, 0, 0), one(1_000, 25*us, bt, bt),
			one(2_000, 25*us, bt, bt), one(3_000, 25*us, 0, bt)},
		paperW: 72_031.25, paperU: 1, todayW: 72_031.25, todayU: 1,
	}, {
		name:   "additive increase: five stages of W = Wc + W_AI",
		acks:   rollover,
		paperW: 39_843.75 + 5*paperA, paperU: 0.76, todayW: 43_750, todayU: 0.76,
	}, {
		// Line 12: incStage ≥ maxStage takes the multiplicative branch at
		// U < η: W = 43 750/(0.76/0.95) + 781.25 = 43 750·1.25 + 781.25.
		name:   "incStage roll-over",
		acks:   append(rollover[:len(rollover):len(rollover)], one(600_000, 25*us, 0, 237_500)),
		paperW: 55_468.75, paperU: 0.76, todayW: 55_468.75, todayU: 0.76,
	}, {
		// Line 15 reset incStage: the next ACK is additive again.
		name: "incStage resets after the roll-over",
		acks: append(rollover[:len(rollover):len(rollover)], one(600_000, 25*us, 0, 237_500),
			one(700_000, 25*us, 0, 237_500)),
		paperW: 56_250, paperU: 0.76, todayW: 56_250, todayU: 0.76,
	}, {
		// Two hops. ACK 1: u = 1 on hop A → U = 1, W = 75 000. ACK 2: hop A
		// u = 31 250/62 500 = 0.5 over 5 µs, hop B u = 0.25 over 10 µs;
		// τ is the busier hop's 5 µs, so U = 0.8·1 + 0.2·0.5 = 0.9 < η and
		// W = 75 000 + 781.25. Hop B's τ would have given U = 0.8.
		name: "τ/T EWMA, τ from the most-utilized hop",
		acks: []ackStep{
			{prime, []hopStep{{0, 0, 0}, {0, 0, 0}}},
			{1_000, []hopStep{{25 * us, 0, bt}, {25 * us, 0, bt / 2}}},
			{2_000, []hopStep{{5 * us, 0, 31_250}, {10 * us, 0, 31_250}}},
		},
		paperW: 75_781.25, paperU: 0.9, todayW: 75_781.25, todayU: 0.9,
	}, {
		// Line 8: τ = min(50 µs, T) = T, so U = u = 1; τ/T = 2 would give
		// U = 2 and W = 36 406.25.
		name:   "τ = min(τ, T)",
		acks:   []ackStep{one(prime, 0, 0, 0), one(1_000, 50*us, 0, 2*bt)},
		paperW: 75_000, paperU: 1, todayW: 75_000, todayU: 1,
	}, {
		// ACK 1 cuts to 75 000. Algorithm 1 latches the next Wc update at
		// snd_nxt, the highest byte sent: ACK seq plus the 78 125 B window
		// in flight, 79 125. Today latches at seq plus the new window,
		// 76 000. So ACK 2 (seq 77 000, u = 2) latches Wc = 36 406.25 today
		// and not in Algorithm 1, and ACK 3 (u = 1) cuts from different Wc:
		// 36 406.25·0.95 + 781.25 today, 75 000·0.95 + 781.25 in the paper.
		name: "Wc latch at ackSeq + W",
		acks: []ackStep{one(prime, 0, 0, 0), one(1_000, 25*us, bt, bt),
			one(77_000, 25*us, bt, bt), one(78_000, 25*us, 0, bt)},
		paperW: 72_031.25, paperU: 1, todayW: 35_367.1875, todayU: 1,
		deviates: "the latch is ackSeq plus the window just computed, not snd_nxt: the controller sees no send sequence, and after a cut the latch comes early",
	}, {
		// T = 250 µs: B·T = 3 125 000 B, line-rate window 781 250 B. Today
		// W_AI = 781 250·0.05/5 = 7 812.5, so W = 781 250·0.95 + 7 812.5;
		// Algorithm 1 adds the network's one W_AI, 781.25.
		name:   "W_AI per flow",
		rtt:    250 * us,
		acks:   []ackStep{one(prime, 0, 0, 0), one(1_000, 250*us, 0, 10*bt)},
		paperW: 742_968.75, paperU: 1, todayW: 750_000, todayU: 1,
		deviates: "W_AI scales with each flow's own line-rate window, BDP·(1−η)/maxStage, where Algorithm 1 has one W_init·(1−η)/N for every flow",
	}, {
		// T = 1 µs: line-rate window 3 125 B, BDP·(1−η)/maxStage = 31.25 B,
		// floored at MTU/8 = 125 B today: W = 3 125·0.95 + 125.
		name:   "W_AI floor",
		rtt:    us,
		acks:   []ackStep{one(prime, 0, 0, 0), one(1_000, us, 0, bt/25)},
		paperW: 2_968.75 + paperA, paperU: 1, todayW: 3_093.75, todayU: 1,
		deviates: "the per-flow W_AI is floored at MTU/8; Algorithm 1's constant W_AI has no floor",
	}}
}

// TestHPCCConformanceVectors drives each vector through today's OnAck and
// asserts today's window and utilization. A vector without a deviation must
// hold Algorithm 1's values too, and one with a deviation must really differ
// from them. Values are compared to within float64 rounding of the
// hand-computed decimals.
func TestHPCCConformanceVectors(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for _, v := range hpccVectors() {
		t.Run(v.name, func(t *testing.T) {
			info := cc.FlowInfo{ID: 1, LinkRate: 25 * sim.Gbps, MTU: 1000, BaseRTT: 25 * us}
			if v.rtt != 0 {
				info.BaseRTT = v.rtt
			}
			s := New(DefaultParams())(info).(*sender)
			if v.rtt == 0 && (!near(s.ctl.Window(), winit) || !near(s.ctl.WAI, paperA)) {
				t.Fatalf("start: W = %v, W_AI = %v, want %v and %v", s.ctl.Window(), s.ctl.WAI, winit, paperA)
			}
			hops := make([]pkt.INTHop, len(v.acks[0].hops))
			for i := range hops {
				hops[i] = pkt.INTHop{Node: pkt.NodeID(100 + i), Band: 100 * sim.Gbps}
			}
			now := sim.Time(0)
			for k, a := range v.acks {
				if k > 0 {
					now += a.hops[0].dt
				}
				for i, h := range a.hops {
					if k > 0 {
						hops[i].TS += h.dt
						hops[i].TxBytes += h.dtx
					}
					hops[i].QLen = h.qlen
				}
				s.OnAck(now, &pkt.Packet{Kind: pkt.Ack, Seq: a.seq, Hops: append([]pkt.INTHop(nil), hops...)})
			}
			if w, u := s.ctl.Window(), s.ctl.Est.U(); !near(w, v.todayW) || !near(u, v.todayU) {
				t.Errorf("W = %v, U = %v; want today's %v, %v", w, u, v.todayW, v.todayU)
			}
			same := near(v.paperW, v.todayW) && near(v.paperU, v.todayU)
			switch {
			case v.deviates == "" && !same:
				t.Errorf("conforming vector holds Algorithm 1's W = %v, U = %v against today's %v, %v", v.paperW, v.paperU, v.todayW, v.todayU)
			case v.deviates != "" && same:
				t.Errorf("vector marked deviates (%s) agrees with Algorithm 1", v.deviates)
			}
		})
	}
}
