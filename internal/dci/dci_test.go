package dci

import (
	"testing"

	"mlcc/internal/cc"
	"mlcc/internal/core"
	"mlcc/internal/fabric"
	"mlcc/internal/link"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// stub is a link endpoint that records deliveries and can transmit queued
// frames.
type stub struct {
	eng    *sim.Engine
	pool   *pkt.Pool
	port   *link.Port
	outbox []*pkt.Packet
	got    []*pkt.Packet
	gotAt  []sim.Time
}

func newStub(eng *sim.Engine, pool *pkt.Pool, rate sim.Rate, delay sim.Time) *stub {
	s := &stub{eng: eng, pool: pool}
	s.port = link.NewPort(eng, s, 0, rate, delay, pool)
	s.port.SetSource(s)
	return s
}

func (s *stub) Receive(p *pkt.Packet, on *link.Port) {
	s.got = append(s.got, p)
	s.gotAt = append(s.gotAt, s.eng.Now())
}

func (s *stub) Next(paused *[pkt.NumClasses]bool) *pkt.Packet {
	if len(s.outbox) == 0 || paused[s.outbox[0].Kind.Pri()] {
		return nil
	}
	p := s.outbox[0]
	s.outbox = s.outbox[1:]
	return p
}

func (s *stub) send(p *pkt.Packet) {
	s.outbox = append(s.outbox, p)
	s.port.Kick()
}

// rig: dcSide (host 1) -- port0 [DCI] port1 -- farSide (host 2).
type rig struct {
	eng     *sim.Engine
	pool    *pkt.Pool
	sw      *Switch
	dcSide  *stub
	farSide *stub
}

func dqmParams() core.DQMParams {
	p := core.DefaultDQMParams()
	p.RTTc = 6 * sim.Millisecond
	p.RTTd = 24 * sim.Microsecond
	p.MTU = 1000
	p.MaxRate = 25 * sim.Gbps
	return p
}

func newRig(t *testing.T, mlccMode bool) *rig {
	t.Helper()
	eng := sim.NewEngine()
	pool := pkt.NewPool()
	sw := New(eng, pool, Config{
		Fabric: fabric.Config{
			ID:          300,
			BufferBytes: 128 << 20,
			INTEnabled:  !mlccMode,
		},
		LongHaulPort: 1,
		MLCC:         mlccMode,
		DQM:          dqmParams(),
		InitRate:     25 * sim.Gbps,
	})
	dcSide := newStub(eng, pool, 100*sim.Gbps, sim.Microsecond)
	farSide := newStub(eng, pool, 100*sim.Gbps, sim.Microsecond)
	p0 := sw.AddPort(100*sim.Gbps, sim.Microsecond)
	p1 := sw.AddPort(100*sim.Gbps, sim.Microsecond)
	link.Connect(dcSide.port, p0)
	link.Connect(farSide.port, p1)
	sw.AddRoute(1, 0) // host 1 on the DC side
	sw.AddRoute(2, 1) // host 2 beyond the long haul
	sw.Finalize()
	return &rig{eng: eng, pool: pool, sw: sw, dcSide: dcSide, farSide: farSide}
}

func TestFinalizeInstallsPFQOnDCPortsOnly(t *testing.T) {
	r := newRig(t, true)
	if _, ok := r.sw.DisciplineAt(0).(*PFQDisc); !ok {
		t.Fatal("DC-facing port lacks PFQ discipline")
	}
	if _, ok := r.sw.DisciplineAt(1).(*PFQDisc); ok {
		t.Fatal("long-haul port must keep the FIFO discipline")
	}
}

func TestNonMLCCKeepsFIFO(t *testing.T) {
	r := newRig(t, false)
	for i := 0; i < 2; i++ {
		if _, ok := r.sw.DisciplineAt(i).(*PFQDisc); ok {
			t.Fatal("PFQ installed without MLCC mode")
		}
	}
}

// TestAckKeepsStackOffTheLongHaulPath: only an MLCC DCI's ACKs bound for
// the long haul lose their INT stack. A frame headed into the datacenter
// keeps it, and so does every ACK through a non-MLCC DCI, whose senders
// (HPCC, PowerTCP) read the records the ACK echoes.
func TestAckKeepsStackOffTheLongHaulPath(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mlcc     bool
		src, dst pkt.NodeID
	}{
		{"mlcc, toward the datacenter", true, 2, 1},
		{"non-mlcc, toward the long haul", false, 1, 2},
	} {
		r := newRig(t, tc.mlcc)
		r.farSide.send(r.pool.NewData(9, 2, 1, 0, 1000)) // a PFQ, under MLCC
		r.eng.Run()
		ack := r.pool.NewControl(pkt.Ack, 9, tc.src, tc.dst)
		ack.Rate = 5 * sim.Gbps
		r.pool.AddHop(ack, pkt.INTHop{Node: 101})
		from, to := r.dcSide, r.farSide
		if tc.src == 2 {
			from, to = r.farSide, r.dcSide
		}
		from.send(ack)
		r.eng.Run()
		if got := to.got[len(to.got)-1]; got != ack || len(got.Hops) != 1 || got.Hops[0].Node != 101 {
			t.Errorf("%s: the ACK arrived with hops %v, want its stack intact", tc.name, got.Hops)
		}
	}
}

func TestNearSourceReflection(t *testing.T) {
	r := newRig(t, true)
	// Data from host 1 toward host 2 (out = long haul) carrying DC INT.
	data := r.pool.NewData(7, 1, 2, 0, 1000)
	data.AddHop(pkt.INTHop{Node: 101, QLen: 5000, Band: 100 * sim.Gbps})
	r.dcSide.send(data)
	r.eng.Run()

	if r.sw.SwitchINTSent != 1 {
		t.Fatalf("SwitchINTSent = %d", r.sw.SwitchINTSent)
	}
	// The data packet reaches the far side with INT cleared.
	if len(r.farSide.got) != 1 {
		t.Fatalf("far side got %d packets", len(r.farSide.got))
	}
	if len(r.farSide.got[0].Hops) != 0 {
		t.Fatal("INT not cleared from forwarded data")
	}
	// The sender got a SwitchINT with the DC hop plus the long-haul hop.
	if len(r.dcSide.got) != 1 {
		t.Fatalf("dc side got %d packets", len(r.dcSide.got))
	}
	si := r.dcSide.got[0]
	if si.Kind != pkt.SwitchINT || si.Flow != 7 {
		t.Fatalf("bad SwitchINT: %v", si)
	}
	if len(si.Hops) != 2 {
		t.Fatalf("SwitchINT hops = %d, want DC hop + long-haul hop", len(si.Hops))
	}
	if si.Hops[0].Node != 101 || si.Hops[1].Node != 300 {
		t.Fatalf("hop nodes = %v, %v", si.Hops[0].Node, si.Hops[1].Node)
	}
}

// TestReflectionLeavesDataBareWithAHolder: when the only free packet holds
// a stack, the Switch-INT frame is drawn as that holder. It hands its own
// stack back to the pool and takes the data frame's records, so the data
// frame still crosses the long haul with no stack at all.
func TestReflectionLeavesDataBareWithAHolder(t *testing.T) {
	r := newRig(t, true)
	data, h := r.pool.NewData(7, 1, 2, 0, 1000), r.pool.Get()
	r.pool.AddHop(data, pkt.INTHop{Node: 101})
	r.pool.AddHop(h, pkt.INTHop{Node: 102})
	held := h.Hops
	r.pool.Put(h) // the only free packet, a holder
	stacks := r.pool.Stacks
	r.dcSide.send(data)
	r.eng.Run()

	if len(r.farSide.got) != 1 || r.farSide.got[0] != data || cap(data.Hops) != 0 {
		t.Fatalf("the data frame crossed with a stack of capacity %d, want none", cap(data.Hops))
	}
	if len(r.dcSide.got) != 1 {
		t.Fatalf("dc side got %d packets", len(r.dcSide.got))
	}
	si := r.dcSide.got[0]
	if si != h || si.Kind != pkt.SwitchINT || len(si.Hops) != 2 || si.Hops[0].Node != 101 || si.Hops[1].Node != 300 {
		t.Fatalf("Switch-INT frame %p (holder %p) carries %v, want the holder with the data frame's hop and the DCI's", si, h, si.Hops)
	}
	p := r.pool.Get()
	r.pool.AddHop(p, pkt.INTHop{})
	if &p.Hops[0] != &held[:1][0] || r.pool.Stacks != stacks {
		t.Fatalf("the holder's stack did not go back to the pool: %d stacks allocated", r.pool.Stacks-stacks)
	}
}

func TestPFQStampsCreditAndINT(t *testing.T) {
	r := newRig(t, true)
	// Data arriving from the long haul for host 1: must be PFQ'd.
	data := r.pool.NewData(9, 2, 1, 0, 1000)
	data.AddHop(pkt.INTHop{Node: 999}) // stale; must be erased
	r.farSide.send(data)
	r.eng.Run()
	if len(r.dcSide.got) != 1 {
		t.Fatalf("dc side got %d packets", len(r.dcSide.got))
	}
	p := r.dcSide.got[0]
	if p.CD != 0 {
		t.Fatalf("CD = %d, want initial 0", p.CD)
	}
	if len(p.Hops) != 1 || p.Hops[0].Node != 300 {
		t.Fatalf("INT not reinserted by the DCI: %v", p.Hops)
	}
	if r.sw.PFQFlows != 1 {
		t.Fatalf("PFQFlows = %d", r.sw.PFQFlows)
	}
}

func TestAckUpdatesCreditRateAndDQM(t *testing.T) {
	r := newRig(t, true)
	// Allocate the PFQ first.
	r.farSide.send(r.pool.NewData(9, 2, 1, 0, 1000))
	r.eng.Run()

	ack := r.pool.NewControl(pkt.Ack, 9, 1, 2)
	ack.CR = 1
	ack.Rate = 5 * sim.Gbps
	r.pool.AddHop(ack, pkt.INTHop{Node: 300}) // the echoed receiver-side INT
	r.dcSide.send(ack)
	r.eng.Run()

	if r.sw.DQMUpdates != 1 {
		t.Fatalf("DQMUpdates = %d", r.sw.DQMUpdates)
	}
	// The ACK continued to the far side carrying R̄_DQM and, since that is
	// all the sender reads, no INT stack.
	var got *pkt.Packet
	for _, p := range r.farSide.got {
		if p.Kind == pkt.Ack {
			got = p
		}
	}
	if got == nil {
		t.Fatal("ack not forwarded")
	}
	if got.Rate == 0 {
		t.Fatal("R̄_DQM not stamped on ack")
	}
	if cap(got.Hops) != 0 {
		t.Fatalf("ack crossed the long haul holding a stack: %v (cap %d)", got.Hops, cap(got.Hops))
	}
	// Subsequent data dequeues carry the updated CD and the new pace.
	r.farSide.send(r.pool.NewData(9, 2, 1, 1000, 1000))
	r.eng.Run()
	last := r.dcSide.got[len(r.dcSide.got)-1]
	if last.Kind != pkt.Data || last.CD != 1 {
		t.Fatalf("CD not updated from CR: %v cd=%d", last.Kind, last.CD)
	}
}

// TestAckWithoutPFQClearsRate: an ACK whose flow has no PFQ state still
// crosses the long haul with its Rate field cleared, so the receiver's
// R_credit never reaches the sender as R̄_DQM.
func TestAckWithoutPFQClearsRate(t *testing.T) {
	r := newRig(t, true)
	ack := r.pool.NewControl(pkt.Ack, 9, 1, 2)
	ack.CR = 1
	ack.Rate = 5 * sim.Gbps
	r.dcSide.send(ack)
	r.eng.Run()
	if len(r.farSide.got) != 1 || r.farSide.got[0] != ack {
		t.Fatalf("far side got %v, want the ACK", r.farSide.got)
	}
	if ack.Rate != 0 || r.sw.DQMUpdates != 0 {
		t.Fatalf("ACK left with Rate %v after %d DQM rounds, want 0 and 0", ack.Rate, r.sw.DQMUpdates)
	}
}

// TestRateFieldCarriesCreditThenDQM follows the one rate field end to end:
// the R_credit an MLCC receiver stamps drives the receiver-side DCI's credit
// round, and the R̄_DQM that DCI writes in its place is what the cross-DC
// sender fuses into its rate (Eq. 10). The second round runs after the PFQ
// has dequeued, so R̄_DQM has walked off R_credit and the two differ.
func TestRateFieldCarriesCreditThenDQM(t *testing.T) {
	r := newRig(t, true)
	flow := cc.FlowInfo{ID: 9, LinkRate: 25 * sim.Gbps, MTU: 1000,
		BaseRTT: 6 * sim.Millisecond, NearRTT: 24 * sim.Microsecond, CrossDC: true}
	slow := flow
	slow.LinkRate = sim.Gbps // the receiver's R_credit starts at its line rate
	recv := core.NewReceiver(core.DefaultParams())(slow)
	round := func(data *pkt.Packet) *pkt.Packet {
		t.Helper()
		ack := r.pool.NewControl(pkt.Ack, 9, 1, 2)
		recv.OnData(r.eng.Now(), data, ack)
		if ack.Rate != sim.Gbps {
			t.Fatalf("receiver stamped R_credit %v, want 1 Gbps", ack.Rate)
		}
		rounds := r.sw.DQMUpdates
		r.dcSide.send(ack)
		r.eng.Run()
		if f := r.sw.flow(9); r.sw.DQMUpdates != rounds+1 || f.rate != sim.Gbps || ack.Rate != f.dqm.Smoothed() {
			t.Fatalf("DCI ran %d credit rounds at dequeue rate %v and stamped %v, want one more at R_credit 1 Gbps stamping R̄_DQM %v",
				r.sw.DQMUpdates-rounds, f.rate, ack.Rate, f.dqm.Smoothed())
		}
		return ack
	}

	r.farSide.send(r.pool.NewData(9, 2, 1, 0, 1000))
	r.eng.Run()
	round(r.dcSide.got[0])
	for i := 1; i <= 20; i++ {
		r.farSide.send(r.pool.NewData(9, 2, 1, int64(i)*1000, 1000))
	}
	r.eng.Run()
	ack := round(r.dcSide.got[len(r.dcSide.got)-1])
	if ack.Rate == sim.Gbps {
		t.Fatal("R̄_DQM still equals R_credit after 20 dequeues; the test cannot tell them apart")
	}
	send := core.NewSender(core.DefaultParams())(flow)
	send.OnAck(r.eng.Now(), ack)
	if got := send.Rate(); got != ack.Rate {
		t.Fatalf("sender rate %v, want R̄_DQM %v, below its R_NS", got, ack.Rate)
	}
}

func TestPFQPacingAtCreditRate(t *testing.T) {
	r := newRig(t, true)
	r.farSide.send(r.pool.NewData(9, 2, 1, 0, 1000))
	r.eng.Run()
	// Set a slow dequeue rate (1 Gbps → 8 µs per 1000B packet).
	ack := r.pool.NewControl(pkt.Ack, 9, 1, 2)
	ack.CR = 1
	ack.Rate = sim.Gbps
	r.dcSide.send(ack)
	r.eng.Run()

	// Burst three packets; inter-arrival on the DC side must be ≥ 8 µs.
	base := len(r.dcSide.got)
	for i := 1; i <= 3; i++ {
		r.farSide.send(r.pool.NewData(9, 2, 1, int64(i)*1000, 1000))
	}
	r.eng.Run()
	if got := len(r.dcSide.got) - base; got != 3 {
		t.Fatalf("delivered %d", got)
	}
	for i := base + 1; i < len(r.dcSide.got); i++ {
		gap := r.dcSide.gotAt[i] - r.dcSide.gotAt[i-1]
		if gap < 7*sim.Microsecond {
			t.Fatalf("pacing violated: gap %v < 8us", gap)
		}
	}
}

func TestPFQGarbageCollection(t *testing.T) {
	r := newRig(t, true)
	r.farSide.send(r.pool.NewData(9, 2, 1, 0, 1000))
	r.eng.Run()
	if r.sw.ActivePFQs() != 1 {
		t.Fatalf("ActivePFQs = %d", r.sw.ActivePFQs())
	}
	ack := r.pool.NewControl(pkt.Ack, 9, 1, 2)
	ack.CR = 1
	ack.Rate = sim.Gbps
	ack.Last = true
	r.dcSide.send(ack)
	r.eng.Run()
	if r.sw.ActivePFQs() != 0 {
		t.Fatalf("PFQ not garbage-collected: %d", r.sw.ActivePFQs())
	}
}

func TestPFQBacklogAccounting(t *testing.T) {
	r := newRig(t, true)
	// Throttle the PFQ hard so packets accumulate.
	r.farSide.send(r.pool.NewData(9, 2, 1, 0, 1000))
	r.eng.Run()
	ack := r.pool.NewControl(pkt.Ack, 9, 1, 2)
	ack.CR = 1
	ack.Rate = 10 * sim.Mbps
	r.dcSide.send(ack)
	r.eng.Run()
	for i := 1; i <= 5; i++ {
		r.farSide.send(r.pool.NewData(9, 2, 1, int64(i)*1000, 1000))
	}
	r.eng.RunUntil(r.eng.Now() + 100*sim.Microsecond)
	if b := r.sw.PFQBacklog(9); b < 3000 {
		t.Fatalf("backlog = %d, want several packets", b)
	}
	if tot := r.sw.PFQTotalBacklog(); tot != r.sw.PFQBacklog(9) {
		t.Fatalf("total %d != flow backlog %d", tot, r.sw.PFQBacklog(9))
	}
	if r.sw.PFQBacklog(12345) != 0 {
		t.Fatal("unknown flow reports backlog")
	}
	// Drain completely.
	ack2 := r.pool.NewControl(pkt.Ack, 9, 1, 2)
	ack2.CR = 2
	ack2.Rate = 25 * sim.Gbps
	r.dcSide.send(ack2)
	r.eng.Run()
	if r.sw.PFQTotalBacklog() != 0 {
		t.Fatalf("backlog not drained: %d", r.sw.PFQTotalBacklog())
	}
	if r.sw.BufferUsed() != 0 {
		t.Fatalf("shared buffer residual: %d", r.sw.BufferUsed())
	}
}

func TestControlBypassesPFQ(t *testing.T) {
	r := newRig(t, true)
	// Freeze the only PFQ at a crawl, then send a control frame: it must
	// not queue behind data.
	r.farSide.send(r.pool.NewData(9, 2, 1, 0, 1000))
	r.eng.Run()
	ack := r.pool.NewControl(pkt.Ack, 9, 1, 2)
	ack.CR = 1
	ack.Rate = 10 * sim.Mbps
	r.dcSide.send(ack)
	r.eng.Run()
	for i := 1; i <= 3; i++ {
		r.farSide.send(r.pool.NewData(9, 2, 1, int64(i)*1000, 1000))
	}
	cnp := r.pool.NewControl(pkt.CNP, 9, 2, 1)
	r.farSide.send(cnp)
	before := r.eng.Now()
	r.eng.RunUntil(before + 50*sim.Microsecond)
	found := false
	for _, p := range r.dcSide.got {
		if p.Kind == pkt.CNP {
			found = true
		}
	}
	if !found {
		t.Fatal("control frame stuck behind paced PFQ data")
	}
}
