package core

import (
	"testing"

	"mlcc/internal/cc"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

func crossFlow() cc.FlowInfo {
	return cc.FlowInfo{
		ID: 1, LinkRate: 25 * sim.Gbps, MTU: 1000,
		BaseRTT: 6 * sim.Millisecond,
		NearRTT: 23 * sim.Microsecond,
		FarRTT:  23 * sim.Microsecond,
		CrossDC: true,
	}
}

func intraFlow() cc.FlowInfo {
	f := crossFlow()
	f.BaseRTT = 25 * sim.Microsecond
	f.CrossDC = false
	return f
}

func TestSenderStartsAtLineRate(t *testing.T) {
	s := NewSender(DefaultParams())(crossFlow())
	if r := s.Rate(); r < 23*sim.Gbps || r > 25*sim.Gbps {
		t.Fatalf("initial rate = %v", r)
	}
}

func TestSenderEq10MinFusion(t *testing.T) {
	s := NewSender(DefaultParams())(crossFlow()).(*sender)
	// R̄_DQM arrives via ACK and is below R_NS: it must bind.
	ack := &pkt.Packet{Kind: pkt.Ack, Rate: 5 * sim.Gbps}
	s.OnAck(0, ack)
	if got := s.Rate(); got != 5*sim.Gbps {
		t.Fatalf("Rate = %v, want min(R_NS, R̄_DQM) = 5Gbps", got)
	}
	if s.rDQM != 5*sim.Gbps {
		t.Fatalf("DQMRate = %v", s.rDQM)
	}
	// A zero Rate field must not reset the stored value.
	s.OnAck(0, &pkt.Packet{Kind: pkt.Ack})
	if got := s.Rate(); got != 5*sim.Gbps {
		t.Fatalf("unset R̄_DQM overwrote state: %v", got)
	}
}

func TestSenderNearSourceThrottles(t *testing.T) {
	s := NewSender(DefaultParams())(crossFlow()).(*sender)
	T := 23 * sim.Microsecond
	band := 100 * sim.Gbps
	bdp := sim.BDPBytes(band, T)
	hop := pkt.INTHop{Node: 9, QLen: 2 * bdp, TxBytes: 0, TS: 0, Band: band}
	s.OnSwitchINT(0, &pkt.Packet{Kind: pkt.SwitchINT, Hops: []pkt.INTHop{hop}})
	for i := 1; i <= 100; i++ {
		hop.TS += T / 2
		hop.TxBytes += int64(float64(band) / 8 * (T / 2).Seconds())
		s.OnSwitchINT(hop.TS, &pkt.Packet{Kind: pkt.SwitchINT, Hops: []pkt.INTHop{hop}})
	}
	if r := s.ns.Rate(); r > 12*sim.Gbps {
		t.Fatalf("near-source loop did not throttle: R_NS = %v", r)
	}
	if s.Rate() != s.ns.Rate() {
		t.Fatalf("Rate %v != binding R_NS %v", s.Rate(), s.ns.Rate())
	}
}

func TestSenderIntraUsesAckINT(t *testing.T) {
	s := NewSender(DefaultParams())(intraFlow()).(*sender)
	T := 25 * sim.Microsecond
	band := 25 * sim.Gbps
	bdp := sim.BDPBytes(band, T)
	hop := pkt.INTHop{Node: 3, QLen: 3 * bdp, TxBytes: 0, TS: 0, Band: band}
	seq := int64(0)
	s.OnAck(0, &pkt.Packet{Kind: pkt.Ack, Seq: seq, Hops: []pkt.INTHop{hop}})
	for i := 1; i <= 100; i++ {
		hop.TS += T / 2
		hop.TxBytes += int64(float64(band) / 8 * (T / 2).Seconds())
		seq += 1000
		s.OnAck(hop.TS, &pkt.Packet{Kind: pkt.Ack, Seq: seq, Hops: []pkt.INTHop{hop}})
	}
	if r := s.Rate(); r > 12*sim.Gbps {
		t.Fatalf("intra MLCC flow did not react to end-to-end INT: %v", r)
	}
	// Intra flows must ignore R̄_DQM entirely.
	s.OnAck(0, &pkt.Packet{Kind: pkt.Ack, Rate: sim.Gbps})
	if s.rDQM != 25*sim.Gbps {
		t.Fatal("intra flow consumed R̄_DQM")
	}
}

func TestSenderCNPIsNoop(t *testing.T) {
	s := NewSender(DefaultParams())(crossFlow())
	r := s.Rate()
	s.OnCNP(0)
	if s.Rate() != r {
		t.Fatal("MLCC reacted to CNP")
	}
}

func TestReceiverNilForIntraFlows(t *testing.T) {
	r := NewReceiver(DefaultParams())(intraFlow())
	if r != nil {
		t.Fatal("intra flows need no receiver logic")
	}
}

func TestReceiverCreditAlgorithm(t *testing.T) {
	r := NewReceiver(DefaultParams())(crossFlow()).(*Receiver)
	mk := func(cd uint32) (*pkt.Packet, *pkt.Packet) {
		data := &pkt.Packet{Kind: pkt.Data, Size: 1000, CD: cd,
			Hops: []pkt.INTHop{
				{Node: 300, QLen: 0, Band: 100 * sim.Gbps},        // DCI PFQ hop
				{Node: 201, QLen: 0, TS: 0, Band: 100 * sim.Gbps}, // spine
				{Node: 101, QLen: 0, TS: 0, Band: 25 * sim.Gbps},  // leaf
			}}
		ack := &pkt.Packet{Kind: pkt.Ack}
		return data, ack
	}

	// First packet: CD=0 matches CR=0 → round completes, CR becomes 1.
	data, ack := mk(0)
	r.OnData(0, data, ack)
	if ack.CR != 1 {
		t.Fatalf("CR = %d, want 1", ack.CR)
	}
	if ack.Rate == 0 {
		t.Fatal("round completion did not publish R_credit")
	}
	if r.Rounds() != 1 {
		t.Fatalf("rounds = %d", r.Rounds())
	}

	// Stale CD (still 0): no new round, CR echoed, no fresh R_credit.
	data, ack = mk(0)
	r.OnData(0, data, ack)
	if ack.CR != 1 || ack.Rate != 0 {
		t.Fatalf("stale credit advanced the round: CR=%d R_credit=%v", ack.CR, ack.Rate)
	}

	// DCI echoes CR=1 into CD: next match advances to 2.
	data, ack = mk(1)
	r.OnData(0, data, ack)
	if ack.CR != 2 || r.Rounds() != 2 {
		t.Fatalf("second round failed: CR=%d rounds=%d", ack.CR, r.Rounds())
	}
}

func TestReceiverExcludesDCIHopFromCredit(t *testing.T) {
	// A massive queue at the DCI hop (hops[0]) must NOT reduce R_credit:
	// the DCI queue is DQM's job; R_credit tracks the receiver-side DC.
	r := NewReceiver(DefaultParams())(crossFlow()).(*Receiver)
	T := 23 * sim.Microsecond
	mkData := func(ts sim.Time, tx int64, cd uint32) *pkt.Packet {
		return &pkt.Packet{Kind: pkt.Data, Size: 1000, CD: cd, Hops: []pkt.INTHop{
			{Node: 300, QLen: 100 << 20, TxBytes: tx, TS: ts, Band: 100 * sim.Gbps},
			{Node: 101, QLen: 0, TxBytes: tx / 2, TS: ts, Band: 25 * sim.Gbps},
		}}
	}
	cr := uint32(0)
	ts := sim.Time(0)
	tx := int64(0)
	for i := 0; i < 100; i++ {
		ack := &pkt.Packet{Kind: pkt.Ack}
		r.OnData(ts, mkData(ts, tx, cr), ack)
		cr = ack.CR
		ts += T / 2
		tx += int64(float64(25*sim.Gbps) / 8 * (T / 2).Seconds() / 2) // leaf at 50%
	}
	if got := r.rcredit; got < 12*sim.Gbps {
		t.Fatalf("R_credit = %v: the DCI hop leaked into the credit loop", got)
	}
}
