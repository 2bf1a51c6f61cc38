package dcqcn

import (
	"testing"

	"mlcc/internal/cc"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

func flowInfo() cc.FlowInfo {
	return cc.FlowInfo{
		ID: 1, LinkRate: 25 * sim.Gbps, MTU: 1000,
		BaseRTT: 25 * sim.Microsecond,
	}
}

func newSender(eng *sim.Engine) cc.Sender {
	return New(eng, DefaultParams())(flowInfo())
}

func TestStartsAtLineRate(t *testing.T) {
	eng := sim.NewEngine()
	s := newSender(eng)
	if s.Rate() != 25*sim.Gbps {
		t.Fatalf("initial rate = %v", s.Rate())
	}
}

func TestCNPDecrease(t *testing.T) {
	eng := sim.NewEngine()
	s := newSender(eng)
	s.OnCNP(0)
	// α = 1 initially → rate halves.
	if got := s.Rate(); got != 12500*sim.Mbps {
		t.Fatalf("rate after first CNP = %v, want 12.5Gbps", got)
	}
	s.OnCNP(0)
	if got := s.Rate(); got >= 12500*sim.Mbps {
		t.Fatalf("rate did not keep decreasing: %v", got)
	}
}

func TestRepeatedCNPsHitFloor(t *testing.T) {
	eng := sim.NewEngine()
	s := newSender(eng)
	for i := 0; i < 200; i++ {
		s.OnCNP(0)
	}
	if got := s.Rate(); got != cc.MinRate {
		t.Fatalf("rate = %v, want floor %v", got, cc.MinRate)
	}
}

func TestFastRecoveryClimbsToTarget(t *testing.T) {
	eng := sim.NewEngine()
	s := newSender(eng)
	s.OnCNP(0) // rt = 25G, rc = 12.5G
	// Run several rate-timer periods: fast recovery converges rc toward rt.
	eng.RunUntil(sim.Millisecond)
	got := s.Rate()
	if got < 20*sim.Gbps {
		t.Fatalf("rate after recovery = %v, want near 25Gbps", got)
	}
	if got > 25*sim.Gbps {
		t.Fatalf("rate exceeded line rate: %v", got)
	}
}

func TestAlphaDecaysWithoutCNP(t *testing.T) {
	eng := sim.NewEngine()
	s := newSender(eng).(*sender)
	s.OnCNP(0)
	alpha0 := s.alpha
	eng.RunUntil(2 * sim.Millisecond)
	if s.alpha >= alpha0 {
		t.Fatalf("alpha did not decay: %v -> %v", alpha0, s.alpha)
	}
}

func TestByteCounterIncrease(t *testing.T) {
	eng := sim.NewEngine()
	p := DefaultParams()
	p.byteCounter = 10_000 // 10 data packets
	s := New(eng, p)(flowInfo()).(*sender)
	s.OnCNP(0)
	r0 := s.Rate()
	ack := &pkt.Packet{Kind: pkt.Ack}
	for i := 0; i < 30; i++ {
		s.OnAck(0, ack)
	}
	if s.Rate() <= r0 {
		t.Fatalf("byte counter did not drive increase: %v -> %v", r0, s.Rate())
	}
}

func TestHyperIncreaseAfterManyStages(t *testing.T) {
	eng := sim.NewEngine()
	p := DefaultParams()
	p.byteCounter = 1000
	s := New(eng, p)(flowInfo()).(*sender)
	s.OnCNP(0)
	s.rc = cc.MinRate
	s.rt = cc.MinRate
	ack := &pkt.Packet{Kind: pkt.Ack}
	// Push both stages beyond F: hyper increase adds RHAI per event.
	for i := 0; i < 100; i++ {
		s.OnAck(0, ack)
		s.timerStage = p.f + 1 // pretend the timer has also advanced
	}
	if s.Rate() < 500*sim.Mbps {
		t.Fatalf("hyper increase too slow: %v", s.Rate())
	}
}

func TestCloseStopsTimers(t *testing.T) {
	eng := sim.NewEngine()
	s := newSender(eng).(*sender)
	s.Close()
	eng.Run() // must terminate: no timer should re-arm
	if eng.Pending() != 0 {
		t.Fatalf("pending events after Close: %d", eng.Pending())
	}
	// Callbacks after Close are no-ops.
	s.OnCNP(0)
	s.OnAck(0, &pkt.Packet{})
}

func TestRateNeverExceedsLine(t *testing.T) {
	eng := sim.NewEngine()
	s := newSender(eng)
	eng.RunUntil(10 * sim.Millisecond)
	if s.Rate() > 25*sim.Gbps {
		t.Fatalf("rate %v above line rate", s.Rate())
	}
}
