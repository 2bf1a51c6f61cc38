package timely

import (
	"math"
	"testing"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// sample is one ACK: dt after the previous one, carrying an RTT of rtt.
type sample struct {
	dt  sim.Time
	rtt sim.Time
}

// conformanceVector drives one fresh sender (25 Gbps line rate, minRTT =
// BaseRTT = 25 µs, the default parameters: α = 0.875, β = 0.8, δ = 50 Mbps,
// Tlow = 50 µs, Thigh = 500 µs, HAI after N = 5) from 10 Gbps through
// acks, and holds the rate after the last one twice: as Mittal et al.
// SIGCOMM'15 Algorithm 1 computes it by hand, one decision per ACK, and as
// this package computes it today. The first ACK, 10 ms in, only primes
// prev_rtt; the rest come 30 µs apart unless a vector says otherwise, so
// each clears today's one-decision-per-minRTT gate. Algorithm 1's HAI rule,
// "N = 5 if gradient < 0 for five completion events, otherwise N = 1", is
// read as N = 5 from the sixth consecutive negative gradient on.
type conformanceVector struct {
	name  string
	acks  []sample
	paper sim.Rate
	today sim.Rate
	// deviates says why today's rate differs from Algorithm 1's; empty when
	// they agree.
	deviates string
}

const (
	us    = sim.Microsecond
	start = 10 * sim.Gbps
	delta = 50 * sim.Mbps
)

// rtts is one ACK per RTT, each 30 µs after the previous.
func rtts(rs ...sim.Time) []sample {
	out := make([]sample, len(rs))
	for i, r := range rs {
		out[i] = sample{30 * us, r * us}
	}
	return out
}

// falling is a prime at 400 µs and then n ACKs each 10 µs faster: every
// new_rtt_diff is −10 µs, so every gradient is negative, inside the band.
func falling(n int) []sample {
	rs := []sim.Time{400}
	for i := 1; i <= n; i++ {
		rs = append(rs, sim.Time(400-10*i))
	}
	return rtts(rs...)
}

func timelyVectors() []conformanceVector {
	return []conformanceVector{{
		name:  "new_rtt < Tlow: rate + δ",
		acks:  rtts(40, 40),
		paper: start + delta, today: start + delta,
	}, {
		// 1 − 0.8·(1 − 500/1 000) = 0.6.
		name:  "new_rtt > Thigh: rate·(1 − β(1 − Thigh/new_rtt))",
		acks:  rtts(1_000, 1_000),
		paper: 6 * sim.Gbps, today: 6 * sim.Gbps,
	}, {
		// rtt_diff = 0.875·10 µs = 8.75 µs, gradient 8.75/25 = 0.35,
		// 1 − 0.8·0.35 = 0.72. Normalizing by new_rtt instead would give
		// 1 − 0.8·8.75/110 ≈ 0.936.
		name:  "positive gradient: rate·(1 − β·rtt_diff/minRTT)",
		acks:  rtts(100, 110),
		paper: 7_200_000_000, today: 7_200_000_000,
	}, {
		// After 7.2 G, new_rtt_diff = −2 µs: rtt_diff = 0.125·8.75 − 0.875·2
		// = −0.656 25 µs ≤ 0, so + δ. Weighting the old difference by α
		// instead would give +0.843 75 µs and a second cut.
		name:  "rtt_diff EWMA weights the new difference by α",
		acks:  rtts(100, 110, 108),
		paper: 7_200_000_000 + delta, today: 7_200_000_000 + delta,
	}, {
		// gradient 0.7, but new_rtt = 40 µs < Tlow.
		name:  "Tlow is checked before the gradient",
		acks:  rtts(20, 40),
		paper: start + delta, today: start + delta,
	}, {
		// gradient −35, but new_rtt = 1 000 µs > Thigh.
		name:  "Thigh is checked before the gradient",
		acks:  rtts(2_000, 1_000),
		paper: 6 * sim.Gbps, today: 6 * sim.Gbps,
	}, {
		name:  "negative gradient, N = 1 below five",
		acks:  falling(4),
		paper: start + 4*delta, today: start + 4*delta,
	}, {
		// Algorithm 1: δ on each of the five. Today the fifth adds
		// (5 − 5 + 2)·δ.
		name:     "the fifth negative gradient",
		acks:     falling(5),
		paper:    start + 5*delta,
		today:    start + 6*delta,
		deviates: "today's HAI ramp n = negCount − N + 2 starts at the fifth negative gradient with 2δ, where Algorithm 1 adds δ",
	}, {
		// Algorithm 1: 5·δ + 3·5δ = 20δ. Today: 4·δ + (2 + 3 + 4 + 5)·δ = 18δ.
		name:     "HAI: N·δ after five negative gradients",
		acks:     falling(8),
		paper:    start + 20*delta,
		today:    start + 18*delta,
		deviates: "today's HAI ramps n from 2 to HAIMax one step per negative gradient, where Algorithm 1 jumps to N = 5",
	}, {
		// rtt_diff = 0.875·30 µs = 26.25 µs, gradient 1.05: 1 − 0.8·1.05
		// = 0.16.
		name:     "steep positive gradient",
		acks:     rtts(100, 130),
		paper:    1_600_000_000,
		today:    5 * sim.Gbps,
		deviates: "today floors the decrease factor 1 − β·gradient at 0.5; Algorithm 1 has no floor",
	}, {
		// ACK 2 cuts to 7.2 G. ACK 3 comes 10 µs later, inside minRTT:
		// rtt_diff = 0.125·8.75 + 0.875·10 = 9.843 75 µs, gradient 0.393 75,
		// and Algorithm 1 cuts again by 1 − 0.315 = 0.685 to 4.932 G. Today
		// folds the sample into rtt_diff but decides nothing.
		name:     "one decision per minRTT",
		acks:     []sample{{30 * us, 100 * us}, {30 * us, 110 * us}, {10 * us, 120 * us}},
		paper:    4_932_000_000,
		today:    7_200_000_000,
		deviates: "today decides at most once per minRTT, folding the ACKs in between into rtt_diff only; Algorithm 1 decides on every completion event",
	}}
}

// TestTimelyConformanceVectors drives each vector through today's OnAck
// and asserts today's rate. A vector without a deviation must hold
// Algorithm 1's rate too, and one with a deviation must really differ from
// it. Rates are compared to within 1 bit/s, the float64 rounding of the
// hand-computed decimals.
func TestTimelyConformanceVectors(t *testing.T) {
	near := func(a, b sim.Rate) bool { return math.Abs(float64(a-b)) <= 1 }
	for _, v := range timelyVectors() {
		t.Run(v.name, func(t *testing.T) {
			s := New(DefaultParams())(flowInfo()).(*sender)
			s.rate = start
			now := 10 * sim.Millisecond
			for _, a := range v.acks {
				now += a.dt
				s.OnAck(now, &pkt.Packet{Kind: pkt.Ack, EchoTS: now - a.rtt})
			}
			if !near(s.Rate(), v.today) {
				t.Errorf("rate = %d, want today's %d", s.Rate(), v.today)
			}
			same := near(v.paper, v.today)
			switch {
			case v.deviates == "" && !same:
				t.Errorf("conforming vector holds Algorithm 1's %d against today's %d", v.paper, v.today)
			case v.deviates != "" && same:
				t.Errorf("vector marked deviates (%s) agrees with Algorithm 1", v.deviates)
			}
		})
	}
}
