package dcqcn

import (
	"math"
	"testing"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// step is what one DCQCN sender sees at one instant: cnps CNPs, then acks
// ACKs, each for one more frame of frame bytes (the 1 000 B MTU when zero).
type step struct {
	at    sim.Time
	cnps  int
	acks  int
	frame int64
}

// conformanceVector drives one fresh sender (25 Gbps, MTU 1 000 B, the
// default parameters: g = 1/256, K = T = 55 µs, B = 10 MiB = 10 486 MTUs,
// F = 5, R_AI = 40 Mbps, R_HAI = 200 Mbps) through steps, reads one value
// at time at — α, or else the current rate R_C in bit/s — and holds it
// twice: as Zhu et al. SIGCOMM'15 §3.1 computes it by hand, and as this
// package computes it today. Both timers start with the flow at 0; a CNP
// restarts the rate timer, so after one at 1 µs it fires at 56, 111, 166,
// 221, 276, 331, 386 µs. The stage rule read from §3.1: T and BC count the
// timer and byte-counter expiries since the last cut, this one included;
// the increase is fast recovery while max(T, BC) < F, hyper increase once
// min(T, BC) > F, and additive increase otherwise.
type conformanceVector struct {
	name  string
	steps []step
	at    sim.Time
	alpha bool
	paper float64
	today float64
	// deviates says why today's value differs from §3.1's; empty when they
	// agree.
	deviates string
}

const (
	us  = sim.Microsecond
	mtu = 10_486 // ACKs of MTU frames that fill B = 10 485 760 B
)

// cut2 is two back-to-back CNPs at 1 µs: R_T = 12.5 G, R_C = 6.25 G, α = 1.
var cut2 = step{at: us, cnps: 2}

func dcqcnVectors() []conformanceVector {
	return []conformanceVector{{
		// α decays once at 55 µs to 255/256. The cut at 60 µs uses that α:
		// R_C = 25 G·(1 − 255/512) = 25 G·257/512. Raising α first would
		// give 25 G·(1 − 65 281/131 072) ≈ 12.548 637 G.
		name:  "CNP cut R_C(1 − α/2) uses the α before its update",
		steps: []step{{at: 60 * us, cnps: 1}},
		at:    60 * us,
		paper: 12_548_828_125, today: 12_548_828_125,
	}, {
		// Then α = (1 − g)·255/256 + g = 65 281/65 536.
		name:  "CNP raises α = (1 − g)α + g after the cut",
		steps: []step{{at: 60 * us, cnps: 1}},
		at:    60 * us, alpha: true,
		paper: 65_281.0 / 65_536, today: 65_281.0 / 65_536,
	}, {
		// No CNP: decays at 55, 110 and 165 µs, α = (255/256)³.
		name: "α decays by (1 − g) every K without a CNP",
		at:   170 * us, alpha: true,
		paper: 16_581_375.0 / 16_777_216, today: 16_581_375.0 / 16_777_216,
	}, {
		// A CNP at 50 µs leaves α = 1. §3.1 decays α once K passes with no
		// CNP, at 105 µs: 255/256 by 107 µs. Today's window [0, 55) saw the
		// CNP, so the first decay is at 110 µs.
		name:  "α decays K after the last CNP",
		steps: []step{{at: 50 * us, cnps: 1}},
		at:    107 * us, alpha: true,
		paper: 255.0 / 256, today: 1,
		deviates: "the α timer runs in fixed K windows from the flow's start and skips the decay of a window that saw a CNP, so the first decay after a CNP comes between K and 2K after it, not K after it",
	}, {
		// Four timer stages below F: R_C = (R_T + R_C)/2 four times from
		// 6.25 G toward 12.5 G, 12.5 G − 6.25 G/16.
		name:  "fast recovery for T < F",
		steps: []step{cut2},
		at:    250 * us,
		paper: 12_109_375_000, today: 12_109_375_000,
	}, {
		// T = F is not below F: additive. R_T = 12.54 G, R_C = (12.109 375
		// + 12.54)/2 G; a fifth fast-recovery step would give 12.304 687 5 G.
		name:  "T = F is additive increase",
		steps: []step{cut2},
		at:    300 * us,
		paper: 12_324_687_500, today: 12_324_687_500,
	}, {
		// T = F + 1 with BC = 0: min(T, BC) is not past F, so additive
		// again: R_T = 12.58 G, R_C = (12.324 687 5 + 12.58)/2 G.
		name:  "T > F with BC = 0 stays additive",
		steps: []step{cut2},
		at:    350 * us,
		paper: 12_452_343_750, today: 12_452_343_750,
	}, {
		// Six byte-counter stages at 2 µs (BC 1–4 fast recovery, 5–6
		// additive), then timer stages 1–5 additive and T = 6 hyper: R_T =
		// 12.5 G + 7·40 M + 200 M = 12.98 G and R_C = 411 476 171 875/32
		// bit/s. Today's R_C truncates each halving to a whole bit/s.
		name:  "hyper increase once T and BC both pass F",
		steps: []step{cut2, {at: 2 * us, acks: 6 * mtu}},
		at:    340 * us,
		paper: 12_858_630_371.093_75, today: 12_858_630_371,
	}, {
		// The second hyper step adds i·R_HAI with i = min(T, BC) − F = 2:
		// R_T = 12.98 G + 400 M and R_C = 839 636 171 875/64 bit/s. Today
		// adds R_HAI again: R_T = 13.18 G.
		name:  "hyper increase step i·R_HAI",
		steps: []step{cut2, {at: 2 * us, acks: 6 * mtu}},
		at:    390 * us,
		paper: 13_119_315_185.546_875, today: 13_019_315_185,
		deviates: "every hyper-increase step adds R_HAI; §3.1, as QCN, adds i·R_HAI in the i-th hyper-increase stage",
	}, {
		// B bytes at 2 µs fill the byte counter (BC = 1, fast recovery to
		// 9.375 G), and the timer's stage at 56 µs is a second step
		// (T = 1, 10.937 5 G): either counter's expiry increases.
		name:  "byte counter and timer each advance a stage",
		steps: []step{cut2, {at: 2 * us, acks: mtu}},
		at:    60 * us,
		paper: 10_937_500_000, today: 10_937_500_000,
	}, {
		// Six byte stages and all but one MTU of a seventh at line rate,
		// then the cut at 3 µs, then one more MTU: the cut zeroed T, BC and
		// the byte count, so only the timer's stage at 58 µs, fast recovery
		// to 9.375 G. Kept counters would make it additive (9.395 G) or add
		// a byte stage.
		name: "a CNP resets both counters and the byte count",
		steps: []step{{at: 2 * us, acks: 7*mtu - 1}, {at: 3 * us, cnps: 2},
			{at: 4 * us, acks: 1}},
		at:    60 * us,
		paper: 9_375_000_000, today: 9_375_000_000,
	}, {
		// One MTU short of B: only the timer's stage, 9.375 G.
		name:  "byte counter waits for B bytes",
		steps: []step{cut2, {at: 2 * us, acks: mtu - 1}},
		at:    60 * us,
		paper: 9_375_000_000, today: 9_375_000_000,
	}, {
		// 10 486 frames of 500 B are 5 243 000 B sent, half of B: only
		// the timer's stage, 9.375 G. Today counts an MTU per ACK and
		// takes a byte stage too.
		name:  "byte counter counts bytes sent",
		steps: []step{cut2, {at: 2 * us, acks: mtu, frame: 500}},
		at:    60 * us,
		paper: 9_375_000_000, today: 10_937_500_000,
		deviates: "the byte counter adds one MTU per ACK, not the bytes the flow sent, so frames shorter than the MTU fill it early",
	}}
}

// TestDCQCNConformanceVectors drives each vector through today's sender and
// asserts today's value exactly. A vector without a deviation must hold
// §3.1's value too, and one with a deviation must really differ from it.
// The hand values are exact; today's rates are whole bit/s, so a rate
// agrees with §3.1's within 1 bit/s.
func TestDCQCNConformanceVectors(t *testing.T) {
	for _, v := range dcqcnVectors() {
		t.Run(v.name, func(t *testing.T) {
			eng := sim.NewEngine()
			s := New(eng, DefaultParams())(flowInfo()).(*sender)
			ack := &pkt.Packet{Kind: pkt.Ack}
			for _, st := range v.steps {
				st := st
				frame := st.frame
				if frame == 0 {
					frame = 1000
				}
				eng.At(st.at, func() {
					for i := 0; i < st.cnps; i++ {
						s.OnCNP(st.at)
					}
					for i := 0; i < st.acks; i++ {
						ack.Seq += frame
						s.OnAck(st.at, ack)
					}
				})
			}
			eng.RunUntil(v.at)
			got, tol := float64(s.rc), 1.0
			if v.alpha {
				got, tol = s.alpha, 1e-12
			}
			if got != v.today {
				t.Errorf("got %v, want today's %v", got, v.today)
			}
			same := math.Abs(v.paper-v.today) <= tol
			switch {
			case v.deviates == "" && !same:
				t.Errorf("conforming vector holds §3.1's %v against today's %v", v.paper, v.today)
			case v.deviates != "" && same:
				t.Errorf("vector marked deviates (%s) agrees with §3.1", v.deviates)
			}
		})
	}
}
