package powertcp

import (
	"math"
	"testing"

	"mlcc/internal/cc"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// hopStep is one INT record's change since the previous ACK on the same
// hop: dt after it, at queue length qlen, with dtx more bytes sent. At
// b = 100 Gbps and τ = 25 µs, b·τ is 312 500 B, so dtx = 312 500 over
// dt = 25 µs is λ = b from the tx rate alone, and qlen = 312 500 doubles
// the voltage b·τ.
type hopStep struct {
	dt   sim.Time
	qlen int64
	dtx  int64
}

// conformanceVector drives one fresh PowerTCP sender through acks, each a
// list of hops; the first ACK only primes the per-hop baseline (its dt and
// dtx are ignored). It holds the window after the last ACK twice: as NSDI'22
// Algorithm 1 computes it by hand, and as this package computes it today.
// Every vector sets γ = 0.9 and β = 1 MTU = 1 000 B and starts from today's
// line-rate window, 78 125 B for a 25 Gbps, 25 µs flow; Algorithm 1's τ, the
// base RTT it is configured with, is 25 µs. Every sample comes one τ after
// the last unless a row says otherwise, so a power smoothed over τ would
// equal the raw sample: no row depends on smoothing.
//
// Per hop, λ = txRate + qGrad, voltage U = q + b·τ and Γ' = λ·U/(b²·τ); Γ is
// the largest Γ' on the path, and w ← γ(w/Γ + β) + (1−γ)w.
type conformanceVector struct {
	name  string
	rtt   sim.Time // the flow's base RTT; 25 µs when zero
	acks  [][]hopStep
	paper float64
	today float64
	// deviates says why today's window differs from Algorithm 1's; empty
	// when they agree.
	deviates string
}

const (
	bt    = 312_500 // b·τ in bytes at 100 Gbps and 25 µs
	us    = sim.Microsecond
	winit = 78_125.0 // 25 Gbps × 25 µs
)

// one is an ACK with a single hop.
func one(dt sim.Time, qlen, dtx int64) []hopStep { return []hopStep{{dt, qlen, dtx}} }

// standing is the first two ACKs of a flow behind a standing queue of b·τ
// at line rate: λ = b, U = 2b·τ, so Γ = 2 and w = 0.9(78 125/2 + 1 000) +
// 7 812.5 = 43 868.75.
var standing = [][]hopStep{one(0, bt, 0), one(25*us, bt, bt)}

func powertcpVectors() []conformanceVector {
	return []conformanceVector{{
		// The queue grows by b·τ/4 while the hop sends b·τ: λ = 1.25b and
		// U = 1.25b·τ, Γ = 1.5625, w = 0.9(50 000 + 1 000) + 7 812.5. The
		// tx rate alone (λ = b) would give Γ = 1.25 and w = 64 962.5.
		name:  "λ = txRate + qGrad",
		acks:  [][]hopStep{one(0, 0, 0), one(25*us, bt/4, bt)},
		paper: 53_712.5, today: 53_712.5,
	}, {
		// A standing queue with no gradient: λ = b, U = q + b·τ = 2b·τ.
		name:  "voltage U = q + b·τ",
		acks:  standing,
		paper: 43_868.75, today: 43_868.75,
	}, {
		// Hop A has Γ' = 2 (standing queue), hop B Γ' = 1.5625 (row 1), so
		// Γ = 2; hop B alone would give 53 712.5.
		name: "Γ is the maximum over hops",
		acks: [][]hopStep{
			{{0, bt, 0}, {0, 0, 0}},
			{{25 * us, bt, bt}, {25 * us, bt / 4, bt}},
		},
		paper: 43_868.75, today: 43_868.75,
	}, {
		// After the standing-queue cut, the next RTT drains half the queue
		// at line rate: λ = b − b/2 (qGrad is signed), U = 1.5b·τ, Γ = 0.75
		// < 1, so the window grows: w = 0.9(43 868.75/0.75 + 1 000) +
		// 4 386.875. The acked byte left after the cut, so w_old = w.
		name:  "γ and β update, one RTT after another",
		acks:  append(standing[:2:2], one(25*us, bt/2, bt)),
		paper: 57_929.375, today: 57_929.375,
	}, {
		// A second ACK 5 µs after the cut, still at line rate behind the
		// standing queue (Γ = 2). Algorithm 1 is inside the RTT (ack.seq <
		// lastUpdated) and keeps 43 868.75; today updates again from the
		// current w: 0.9(21 934.375 + 1 000) + 4 386.875.
		name:     "one update per RTT, from w_old",
		acks:     append(standing[:2:2], one(5*us, bt, bt/5)),
		paper:    43_868.75,
		today:    25_027.8125,
		deviates: "the window updates on every ACK from the current w; Algorithm 1 updates once per RTT (ack.seq ≥ lastUpdated) from w_old, the window when the acked byte was sent",
	}, {
		// A 50 µs flow (w = 156 250) behind the standing queue of b·25 µs at
		// line rate. Algorithm 1's τ = 25 µs gives U = 2b·τ, Γ = 2 and w =
		// 0.9(78 125 + 1 000) + 15 625; today's τ = 50 µs gives U = q + b·50
		// µs = 1.5b·50 µs, Γ = 1.5 and w = 0.9(104 166.6… + 1 000) + 15 625.
		name:     "τ at every hop",
		rtt:      50 * us,
		acks:     standing,
		paper:    86_837.5,
		today:    110_275,
		deviates: "τ is the flow's own base RTT at every hop; Algorithm 1's τ is the one base RTT it is configured with, so a flow whose RTT differs from it sees another voltage and base power",
	}, {
		// λ = b with no queue: Γ = 1 and w = 0.9(78 125 + 1 000) + 7 812.5
		// = 79 025, one β above the line-rate window, where today stops.
		name:     "window clamp",
		acks:     [][]hopStep{one(0, 0, 0), one(25*us, 0, bt)},
		paper:    79_025,
		today:    winit,
		deviates: "the window is clamped to [MinRate·RTT, BDP] of the flow's line rate; Algorithm 1 has no clamp",
	}}
}

// TestPowerTCPConformanceVectors drives each vector through today's OnAck
// and asserts today's window. A vector without a deviation must hold
// Algorithm 1's value too, and one with a deviation must really differ from
// it. Values are compared to within float64 rounding of the hand-computed
// decimals.
func TestPowerTCPConformanceVectors(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for _, v := range powertcpVectors() {
		t.Run(v.name, func(t *testing.T) {
			info := cc.FlowInfo{ID: 1, LinkRate: 25 * sim.Gbps, MTU: 1000, BaseRTT: 25 * us}
			if v.rtt != 0 {
				info.BaseRTT = v.rtt
			}
			s := New(DefaultParams())(info).(*sender)
			if want := winit * float64(info.BaseRTT) / float64(25*us); !near(s.w, want) {
				t.Fatalf("start: w = %v, want %v", s.w, want)
			}
			hops := make([]pkt.INTHop, len(v.acks[0]))
			for i := range hops {
				hops[i] = pkt.INTHop{Node: pkt.NodeID(100 + i), Band: 100 * sim.Gbps}
			}
			now := sim.Time(0)
			for k, a := range v.acks {
				if k > 0 {
					now += a[0].dt
				}
				for i, h := range a {
					if k > 0 {
						hops[i].TS += h.dt
						hops[i].TxBytes += h.dtx
					}
					hops[i].QLen = h.qlen
				}
				s.OnAck(now, &pkt.Packet{Kind: pkt.Ack, Hops: append([]pkt.INTHop(nil), hops...)})
			}
			if !near(s.w, v.today) {
				t.Errorf("w = %v, want today's %v", s.w, v.today)
			}
			same := near(v.paper, v.today)
			switch {
			case v.deviates == "" && !same:
				t.Errorf("conforming vector holds Algorithm 1's %v against today's %v", v.paper, v.today)
			case v.deviates != "" && same:
				t.Errorf("vector marked deviates (%s) agrees with Algorithm 1", v.deviates)
			}
		})
	}
}
