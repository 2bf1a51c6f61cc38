package host

import (
	"testing"

	"mlcc/internal/cc"
	"mlcc/internal/fabric"
	"mlcc/internal/link"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// fixedCC paces at a constant rate and records callbacks.
type fixedCC struct {
	rate       sim.Rate
	acks       int
	cnps       int
	switchINTs int
	closed     bool
	echoes     []sim.Time // EchoTS of each ACK, in arrival order
}

func (f *fixedCC) OnAck(now sim.Time, ack *pkt.Packet) {
	f.acks++
	f.echoes = append(f.echoes, ack.EchoTS)
}
func (f *fixedCC) OnCNP(now sim.Time) { f.cnps++ }
func (f *fixedCC) OnSwitchINT(now sim.Time, p *pkt.Packet) {
	f.switchINTs++
}
func (f *fixedCC) Rate() sim.Rate { return f.rate }
func (f *fixedCC) Close()         { f.closed = true }

// echoReceiver stamps a recognizable credit onto ACKs.
type echoReceiver struct{ calls int }

func (e *echoReceiver) OnData(now sim.Time, data, ack *pkt.Packet) {
	e.calls++
	ack.CR = 42
}

// rig: two hosts joined by one switch.
type rig struct {
	eng    *sim.Engine
	pool   *pkt.Pool
	table  *Table
	a, b   *Host
	sw     *fabric.Switch
	ccByID map[pkt.FlowID]*fixedCC
}

func newRig(t *testing.T, swCfg fabric.Config, hostCfg Config) *rig {
	return newRigRates(t, swCfg, hostCfg, nil)
}

// newRigRates lets tests use asymmetric link rates: rates = [2]{a, b}.
func newRigRates(t *testing.T, swCfg fabric.Config, hostCfg Config, rates *[2]sim.Rate) *rig {
	t.Helper()
	eng := sim.NewEngine()
	pool := pkt.NewPool()
	table := NewTable()
	r := &rig{eng: eng, pool: pool, table: table, ccByID: map[pkt.FlowID]*fixedCC{}}

	newSender := func(f cc.FlowInfo) cc.Sender {
		s := &fixedCC{rate: f.LinkRate}
		r.ccByID[f.ID] = s
		return s
	}
	var newReceiver cc.ReceiverFactory
	if hostCfg.MTU == 1234 { // sentinel: install echo receivers
		hostCfg.MTU = 1000
		newReceiver = func(f cc.FlowInfo) cc.Receiver { return &echoReceiver{} }
	}

	mk := func(id pkt.NodeID, rate sim.Rate) *Host {
		cfg := hostCfg
		cfg.ID = id
		cfg.Rate = rate
		return New(eng, pool, cfg, table, newSender, newReceiver, sim.Microsecond)
	}
	rateA, rateB := hostCfg.Rate, hostCfg.Rate
	if rates != nil {
		rateA, rateB = rates[0], rates[1]
	}
	r.a = mk(1, rateA)
	r.b = mk(2, rateB)
	r.sw = fabric.New(eng, pool, swCfg)
	pa := r.sw.AddPort(rateA, sim.Microsecond)
	pb := r.sw.AddPort(rateB, sim.Microsecond)
	link.Connect(r.a.Port(), pa)
	link.Connect(r.b.Port(), pb)
	r.sw.AddRoute(1, 0)
	r.sw.AddRoute(2, 1)
	return r
}

func basicSwitch() fabric.Config {
	return fabric.Config{ID: 100, BufferBytes: 1 << 20, INTEnabled: true}
}

func basicHost() Config {
	return Config{Rate: 25 * sim.Gbps, MTU: 1000}
}

func (r *rig) addFlow(src, dst pkt.NodeID, size int64, start sim.Time) *Flow {
	from := r.a
	if src == 2 {
		from = r.b
	}
	info := cc.FlowInfo{
		Src: src, Dst: dst, Size: size,
		LinkRate: from.cfg.Rate, MTU: 1000, BaseRTT: 10 * sim.Microsecond,
	}
	f := r.table.Add(info, start)
	r.eng.At(start, func() { from.StartFlow(f) })
	return f
}

func TestFlowCompletes(t *testing.T) {
	r := newRig(t, basicSwitch(), basicHost())
	f := r.addFlow(1, 2, 100_000, sim.Microsecond)
	r.eng.RunUntil(10 * sim.Millisecond)
	if !f.Done {
		t.Fatal("flow incomplete")
	}
	// 100 packets at 25G = 32 µs + path latency.
	if fct := f.FCT(); fct < 32*sim.Microsecond || fct > 100*sim.Microsecond {
		t.Fatalf("FCT = %v", fct)
	}
	if got := r.b.ReceivedBytes(f.Info.ID); got != 100_000 {
		t.Fatalf("received %d", got)
	}
	if f.RxBytes != 100_000 {
		t.Fatalf("RxBytes = %d", f.RxBytes)
	}
}

func TestPerPacketAcksReachSender(t *testing.T) {
	r := newRig(t, basicSwitch(), basicHost())
	f := r.addFlow(1, 2, 10_000, 0)
	r.eng.RunUntil(10 * sim.Millisecond)
	s := r.ccByID[f.Info.ID]
	if s.acks != 10 {
		t.Fatalf("acks = %d, want 10", s.acks)
	}
}

func TestSenderClosedOnCompletion(t *testing.T) {
	r := newRig(t, basicSwitch(), basicHost())
	f := r.addFlow(1, 2, 10_000, 0)
	r.eng.RunUntil(10 * sim.Millisecond)
	if !r.ccByID[f.Info.ID].closed {
		t.Fatal("sender not closed")
	}
	if r.a.ActiveSends() != 0 {
		t.Fatalf("ActiveSends = %d", r.a.ActiveSends())
	}
	if r.a.sendOf(f.Info.ID) != nil {
		t.Fatal("finished flow still queryable")
	}
}

func TestOnFlowDoneCallback(t *testing.T) {
	r := newRig(t, basicSwitch(), basicHost())
	var done []*Flow
	r.b.OnFlowDone = func(f *Flow) { done = append(done, f) }
	f := r.addFlow(1, 2, 5_000, 0)
	r.eng.RunUntil(10 * sim.Millisecond)
	if len(done) != 1 || done[0] != f {
		t.Fatalf("OnFlowDone fired %d times", len(done))
	}
	if f.FinishAt == 0 || !f.started {
		t.Fatalf("lifecycle not recorded: %+v", f)
	}
}

func TestPacingHonoursRate(t *testing.T) {
	r := newRig(t, basicSwitch(), basicHost())
	f := r.addFlow(1, 2, 10_000, sim.Microsecond)
	// Pace at 1 Gbps: 8 µs per packet; nine gaps ≈ 72 µs.
	r.eng.At(0, func() {}) // ensure engine starts at 0
	r.eng.At(sim.Microsecond, func() { r.ccByID[f.Info.ID].rate = sim.Gbps })
	r.eng.RunUntil(10 * sim.Millisecond)
	if !f.Done {
		t.Fatal("flow incomplete")
	}
	// Packet 1 leaves before the rate change lands; the remaining eight
	// gaps are paced at 8 µs each.
	if fct := f.FCT(); fct < 64*sim.Microsecond {
		t.Fatalf("FCT %v too fast for 1Gbps pacing", fct)
	}
}

// TestWatchdogIgnoresPacingGaps: an armed watchdog on a µs-RTT flow paced
// slower than one MTU per K·RTT, whose ACKs come back queued behind the
// next packet, sees a gap longer than K·RTT before every ACK — pacing, not
// silence. Its threshold is floored at RTOMin, so the flow never decays.
func TestWatchdogIgnoresPacingGaps(t *testing.T) {
	h := basicHost()
	h.FBWatchdogK = 2
	r := newRig(t, basicSwitch(), h)
	// 50 µs of queueing on the ACK path: each packet's ACK lands after the
	// next packet has left, so data is always outstanding.
	r.b.Port().SetImpairment(1, 50*sim.Microsecond, 0, nil)
	f := r.addFlow(1, 2, 50_000, sim.Microsecond)
	// 200 Mbps is 40 µs per 1000 B packet, twice K·RTT = 2·10 µs.
	r.eng.At(sim.Microsecond, func() { r.ccByID[f.Info.ID].rate = 200 * sim.Mbps })
	r.eng.RunUntil(10 * sim.Millisecond)
	if !f.Done {
		t.Fatal("flow incomplete")
	}
	if acks := r.ccByID[f.Info.ID].acks; acks != 50 {
		t.Fatalf("acks = %d, want 50", acks)
	}
	if r.a.WatchdogDecays != 0 {
		t.Fatalf("watchdog decayed %d times on a flow whose ACKs all arrived", r.a.WatchdogDecays)
	}
}

func TestRoundRobinSharesNIC(t *testing.T) {
	r := newRig(t, basicSwitch(), basicHost())
	f1 := r.addFlow(1, 2, 500_000, 0)
	f2 := r.addFlow(1, 2, 500_000, 0)
	r.eng.RunUntil(10 * sim.Millisecond)
	if !f1.Done || !f2.Done {
		t.Fatal("flows incomplete")
	}
	// Both compete for the same 25G NIC: completion times within 30%.
	d1, d2 := float64(f1.FCT()), float64(f2.FCT())
	if d1/d2 > 1.3 || d2/d1 > 1.3 {
		t.Fatalf("unfair NIC sharing: %v vs %v", f1.FCT(), f2.FCT())
	}
}

func TestCNPGeneratedOnCE(t *testing.T) {
	cfg := basicSwitch()
	cfg.ECNKmin = 1 // mark aggressively
	cfg.ECNKmax = 2
	cfg.ECNPmax = 1
	h := basicHost()
	h.CNPInterval = 50 * sim.Microsecond
	// Fast sender into a slow receiver link so the switch queue builds.
	r := newRigRates(t, cfg, h, &[2]sim.Rate{100 * sim.Gbps, 25 * sim.Gbps})
	f := r.addFlow(1, 2, 1_000_000, 0)
	r.eng.RunUntil(10 * sim.Millisecond)
	if r.ccByID[f.Info.ID].cnps == 0 {
		t.Fatal("no CNPs despite CE marks")
	}
	// CNPs must be paced: over ~0.3ms of transfer, at most ~8.
	if got := r.ccByID[f.Info.ID].cnps; got > 20 {
		t.Fatalf("CNPs not paced: %d", got)
	}
}

func TestNoCNPWhenDisabled(t *testing.T) {
	cfg := basicSwitch()
	cfg.ECNKmin = 1
	cfg.ECNKmax = 2
	cfg.ECNPmax = 1
	// Same bottleneck as above, but CNP generation disabled.
	r := newRigRates(t, cfg, basicHost(), &[2]sim.Rate{100 * sim.Gbps, 25 * sim.Gbps})
	f := r.addFlow(1, 2, 100_000, 0)
	r.eng.RunUntil(10 * sim.Millisecond)
	if r.ccByID[f.Info.ID].cnps != 0 {
		t.Fatal("CNP generated while disabled")
	}
}

func TestReceiverLogicStampsAck(t *testing.T) {
	h := basicHost()
	h.MTU = 1234 // sentinel enabling echo receivers
	r := newRig(t, basicSwitch(), h)
	f := r.addFlow(1, 2, 10_000, 0)
	r.eng.RunUntil(10 * sim.Millisecond)
	if !f.Done {
		t.Fatal("flow incomplete")
	}
	_ = f
}

// stampReceiver records, per data frame, its EchoTS and the one the receiver
// put on its ACK.
type stampReceiver struct{ data, ack []sim.Time }

func (s *stampReceiver) OnData(now sim.Time, data, ack *pkt.Packet) {
	s.data = append(s.data, data.EchoTS)
	s.ack = append(s.ack, ack.EchoTS)
}

// TestEchoTSCarriesTheRTTSample: a data frame leaves with its emit time in
// EchoTS, its ACK echoes that value, and so the sender's RTT sample (Timely's
// now - ack.EchoTS) measures from the emit.
func TestEchoTSCarriesTheRTTSample(t *testing.T) {
	r := newRig(t, basicSwitch(), basicHost())
	fr := metrics.NewFlightRecorder(64)
	r.a.SetRecorder(fr)
	rec := &stampReceiver{}
	r.b.newReceiver = func(cc.FlowInfo) cc.Receiver { return rec }
	f := r.addFlow(1, 2, 5_000, 3*sim.Microsecond)
	r.eng.RunUntil(10 * sim.Millisecond)
	if !f.Done {
		t.Fatal("flow incomplete")
	}
	var emits []metrics.Event
	for _, e := range fr.Events() {
		if e.Kind == metrics.EvSend {
			emits = append(emits, e)
		}
	}
	echoes := r.ccByID[f.Info.ID].echoes
	if len(emits) != 5 || len(rec.data) != 5 || len(echoes) != 5 {
		t.Fatalf("%d emits, %d frames received, %d ACKs; want 5 each", len(emits), len(rec.data), len(echoes))
	}
	for i, e := range emits {
		if e.T == 0 || rec.data[i] != e.T || rec.ack[i] != e.T || echoes[i] != e.T {
			t.Errorf("frame %d emitted at %v: data EchoTS %v, ACK stamped %v, sender saw %v",
				i, e.T, rec.data[i], rec.ack[i], echoes[i])
		}
	}
}

// TestRateRecordedOnChange pins that the flight recorder logs a flow's rate
// only when a CC callback changes it: of the ACKs a constant-rate sender
// sees, only the first records a rate event, and after the rate changes the
// next ACK records exactly one more.
func TestRateRecordedOnChange(t *testing.T) {
	r := newRig(t, basicSwitch(), basicHost())
	fr := metrics.NewFlightRecorder(256)
	r.a.SetRecorder(fr)
	f := r.addFlow(1, 2, 10_000, 0)
	const change = 6 * sim.Microsecond
	r.eng.At(change, func() { r.ccByID[f.Info.ID].rate = 10 * sim.Gbps })
	r.eng.RunUntil(sim.Millisecond)
	if !f.Done {
		t.Fatal("flow incomplete")
	}
	var acksBefore, acksAfter int
	var rates []metrics.Event
	for _, e := range fr.Events() {
		switch {
		case e.Kind == metrics.EvAck && e.T < change:
			acksBefore++
		case e.Kind == metrics.EvAck:
			acksAfter++
		case e.Kind == metrics.EvRateUpdate:
			rates = append(rates, e)
		}
	}
	if acksBefore < 2 || acksAfter < 2 {
		t.Fatalf("%d ACKs before the rate change, %d after; the test needs two each", acksBefore, acksAfter)
	}
	if len(rates) != 2 || rates[0].Val != int64(25*sim.Gbps) || rates[1].Val != int64(10*sim.Gbps) || rates[1].T < change {
		t.Fatalf("rate events %+v, want one at 25 Gb/s, then one at 10 Gb/s after %v", rates, change)
	}
}

func TestSwitchINTDispatch(t *testing.T) {
	r := newRig(t, basicSwitch(), basicHost())
	f := r.addFlow(1, 2, 10_000, 0)
	r.eng.At(sim.Microsecond, func() {
		si := r.pool.NewControl(pkt.SwitchINT, f.Info.ID, 99, 1)
		r.b.Port() // unused
		r.sw.Receive(si, r.sw.Port(1))
	})
	r.eng.RunUntil(10 * sim.Millisecond)
	if r.ccByID[f.Info.ID].switchINTs != 1 {
		t.Fatalf("switchINTs = %d", r.ccByID[f.Info.ID].switchINTs)
	}
}

func TestGoBackNRecoversFromDrop(t *testing.T) {
	h := basicHost()
	h.RTOMin = 200 * sim.Microsecond
	r := newRig(t, basicSwitch(), h)
	// Destroy exactly the 7th data frame on the wire. Unlike provoking a
	// buffer overrun, a forced drop cannot silently fail to occur, so this
	// test always exercises the rewind path.
	var nth int
	r.a.Port().SetFaultHooks(&link.FaultHooks{Corrupt: func(*pkt.Packet) bool {
		nth++
		return nth == 7
	}})
	f := r.addFlow(1, 2, 200_000, 0)
	r.eng.RunUntil(50 * sim.Millisecond)
	if !f.Done {
		t.Fatalf("flow incomplete after a forced drop (retransmits=%d)", r.a.Retransmits)
	}
	if f.Aborted {
		t.Fatal("a single drop exhausted the retransmission budget")
	}
	if r.a.Retransmits == 0 {
		t.Fatal("a frame was destroyed but the sender never retransmitted")
	}
	if got := r.b.ReceivedBytes(f.Info.ID); got != 200_000 {
		t.Fatalf("received %d bytes, want 200000", got)
	}
}

// TestRTOBackoffGrowthCapAndReset blackholes the wire and samples the
// sender's live RTO: it must double per consecutive timeout, clamp at
// RTOMax, never exceed it, and collapse back to the base once an ack makes
// progress after the wire heals.
func TestRTOBackoffGrowthCapAndReset(t *testing.T) {
	h := basicHost()
	h.RTOMin = 100 * sim.Microsecond
	h.RTOMax = 800 * sim.Microsecond
	h.MaxRetrans = -1 // unlimited: this test watches the timer, not the budget
	r := newRig(t, basicSwitch(), h)
	const healAt = 3 * sim.Millisecond
	r.a.Port().SetFaultHooks(&link.FaultHooks{Corrupt: func(*pkt.Packet) bool {
		return r.eng.Now() < healAt
	}})
	f := r.addFlow(1, 2, 200_000, 0)

	seen := map[sim.Time]bool{} // distinct RTO values observed
	var resetAfterHeal, overCap bool
	var tick func()
	tick = func() {
		if rto := currentRTO(r.a, f.Info.ID); rto > 0 {
			seen[rto] = true
			if rto > h.RTOMax {
				overCap = true
			}
			if r.eng.Now() > healAt && rto == h.RTOMin {
				resetAfterHeal = true
			}
		}
		r.eng.After(5*sim.Microsecond, tick)
	}
	r.eng.At(0, tick)
	r.eng.RunUntil(20 * sim.Millisecond)

	if !f.Done || f.Aborted {
		t.Fatalf("flow after heal: done=%v aborted=%v", f.Done, f.Aborted)
	}
	if overCap {
		t.Error("RTO exceeded RTOMax")
	}
	// base → 2× → 4× → cap: the full exponential ladder must appear.
	for _, want := range []sim.Time{100, 200, 400, 800} {
		if !seen[want*sim.Microsecond] {
			t.Errorf("RTO value %dµs never observed (saw %v)", want, seen)
		}
	}
	if !resetAfterHeal {
		t.Error("backoff never reset to the base RTO after ack progress resumed")
	}
}

// TestRTOAbortAfterBudget destroys every data frame forever: the sender
// must burn its retransmission budget, abort the flow and release every
// resource it held.
func TestRTOAbortAfterBudget(t *testing.T) {
	h := basicHost()
	h.RTOMin = 100 * sim.Microsecond
	h.RTOMax = 400 * sim.Microsecond
	h.MaxRetrans = 3
	r := newRig(t, basicSwitch(), h)
	r.a.Port().SetFaultHooks(&link.FaultHooks{Corrupt: func(*pkt.Packet) bool { return true }})
	f := r.addFlow(1, 2, 50_000, 0)
	r.eng.RunUntil(50 * sim.Millisecond)

	if !f.Aborted || f.Done {
		t.Fatalf("flow on a dead wire: aborted=%v done=%v", f.Aborted, f.Done)
	}
	if f.AbortAt == 0 || f.AbortAt > 5*sim.Millisecond || f.FinishAt != 0 {
		t.Errorf("abort stamped at %v (FinishAt %v), want within the first few RTOs and no finish", f.AbortAt, f.FinishAt)
	}
	if r.a.Aborted != 1 {
		t.Errorf("host Aborted counter = %d, want 1", r.a.Aborted)
	}
	if r.a.ActiveSends() != 0 {
		t.Errorf("aborted flow still in the send list: ActiveSends = %d", r.a.ActiveSends())
	}
	if !r.ccByID[f.Info.ID].closed {
		t.Error("sender not closed on abort")
	}
	if rto := currentRTO(r.a, f.Info.ID); rto != 0 {
		t.Errorf("aborted flow still has an armed RTO of %v", rto)
	}
	if out := r.pool.Outstanding(); out != 0 {
		t.Errorf("packet pool leak after abort: %d outstanding", out)
	}
}

// TestDownEgressPortParksFlow downs the host's own egress port: frames stay
// parked in the host (never offered to the wire), so idle RTO fires must not
// spend the retransmission budget — the flow survives a parking interval
// many RTOs long and completes once the port comes back.
func TestDownEgressPortParksFlow(t *testing.T) {
	h := basicHost()
	h.RTOMin = 50 * sim.Microsecond
	h.MaxRetrans = 2 // 2 ms parked at 50 µs RTO: dozens of idle fires vs budget 2
	r := newRig(t, basicSwitch(), h)
	r.eng.At(0, func() { r.a.Port().SetDown(true) })
	f := r.addFlow(1, 2, 50_000, sim.Microsecond)
	r.eng.At(2*sim.Millisecond, func() { r.a.Port().SetDown(false) })
	r.eng.RunUntil(20 * sim.Millisecond)

	if !f.Done || f.Aborted {
		t.Fatalf("parked flow: done=%v aborted=%v — idle timeouts must not spend budget",
			f.Done, f.Aborted)
	}
	if r.a.Retransmits != 0 {
		t.Errorf("Retransmits = %d for a flow that never lost a frame", r.a.Retransmits)
	}
	if f.FinishAt <= 2*sim.Millisecond {
		t.Errorf("flow finished at %v, before the port came back up", f.FinishAt)
	}
}

func TestTableBookkeeping(t *testing.T) {
	table := NewTable()
	info := cc.FlowInfo{Src: 1, Dst: 2, Size: 1000}
	f1 := table.Add(info, 0)
	f2 := table.Add(info, sim.Microsecond)
	if f1.Info.ID == f2.Info.ID {
		t.Fatal("duplicate flow ids")
	}
	if table.Len() != 2 {
		t.Fatalf("Len = %d", table.Len())
	}
	if table.Get(f1.Info.ID) != f1 || table.Get(999) != nil {
		t.Fatal("Get broken")
	}
	if len(table.All()) != 2 {
		t.Fatal("All broken")
	}
}

func TestStartFlowWrongHostPanics(t *testing.T) {
	r := newRig(t, basicSwitch(), basicHost())
	f := r.table.Add(cc.FlowInfo{Src: 2, Dst: 1, Size: 1000, LinkRate: sim.Gbps, MTU: 1000}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.a.StartFlow(f)
}

func TestFCTZeroWhileUnfinished(t *testing.T) {
	f := &Flow{}
	if f.FCT() != 0 {
		t.Fatal("unfinished flow has nonzero FCT")
	}
}

func TestSubMTUFlow(t *testing.T) {
	r := newRig(t, basicSwitch(), basicHost())
	f := r.addFlow(1, 2, 100, 0) // single tiny packet
	r.eng.RunUntil(5 * sim.Millisecond)
	if !f.Done {
		t.Fatal("tiny flow incomplete")
	}
	if r.a.SentData != 1 {
		t.Fatalf("SentData = %d", r.a.SentData)
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	r := newRig(t, basicSwitch(), basicHost())
	f1 := r.addFlow(1, 2, 200_000, 0)
	f2 := r.addFlow(2, 1, 200_000, 0)
	r.eng.RunUntil(20 * sim.Millisecond)
	if !f1.Done || !f2.Done {
		t.Fatal("bidirectional flows incomplete")
	}
}

// currentRTO is flow id's active retransmission timeout at h, backoff
// included; 0 when h is not sending it.
func currentRTO(h *Host, id pkt.FlowID) sim.Time {
	if s := h.sendOf(id); s != nil {
		return h.rto(s)
	}
	return 0
}
