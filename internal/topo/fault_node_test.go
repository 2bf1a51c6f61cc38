package topo

import (
	"bytes"
	"strings"
	"testing"

	"mlcc/internal/audit"
	"mlcc/internal/fault"
	"mlcc/internal/guard"
	"mlcc/internal/host"
	"mlcc/internal/metrics"
	"mlcc/internal/sim"
)

// nodeTestParams is the shared geometry for the node-fault tests: a small
// dumbbell (hosts 0,1 = DC 0; hosts 2,3 = DC 1) with a short long haul so
// RTO and guard windows stay in the low milliseconds.
func nodeTestParams(alg string) Params {
	p := DefaultParams().WithAlgorithm(alg)
	p.Seed = 1
	p.HostsPerLeaf = 2
	p.LongHaulDelay = 100 * sim.Microsecond
	return p
}

// TestHostCrashRestartResumes pins the go-back-N restart semantics: a host
// crashed mid-window parks its flow on the acked prefix and, after restart,
// rebuilds the send state from that checkpoint and finishes the transfer —
// no abort, no duplicate ledger entries, books closed.
func TestHostCrashRestartResumes(t *testing.T) {
	p := nodeTestParams(AlgMLCC)
	p.Audit = audit.New()
	p.Fault = &fault.Plan{Seed: 1, Nodes: []fault.NodeEvent{
		{At: sim.Millisecond, Node: "host0", Action: fault.HostCrash},
		{At: 2 * sim.Millisecond, Node: "host0", Action: fault.HostRestart},
	}}
	n := Dumbbell(p)
	f := n.AddFlow(0, 1, 8<<20, 500*sim.Microsecond)
	n.Run(60 * sim.Millisecond)

	h := n.Hosts[0]
	if h.Crashes != 1 || h.Restarts != 1 {
		t.Fatalf("host0 crash/restart counters = %d/%d, want 1/1", h.Crashes, h.Restarts)
	}
	if h.Crashed() || h.ParkedFlows() != 0 {
		t.Fatalf("host0 still crashed=%v with %d parked flows after restart", h.Crashed(), h.ParkedFlows())
	}
	if !f.Done || f.Aborted {
		t.Fatalf("flow done=%v aborted=%v after crash+restart, want resumed to completion", f.Done, f.Aborted)
	}
	if f.FinishAt <= 2*sim.Millisecond {
		t.Errorf("flow finished at %v, before the restart at 2ms — crash never bit", f.FinishAt)
	}
	if got := n.Hosts[1].ReceivedBytes(f.Info.ID); got != f.Info.Size {
		t.Errorf("receiver got %d/%d bytes", got, f.Info.Size)
	}
	if s := n.Summary(); s.Crashes != 1 || s.Restarts != 1 || s.FaultDrops == 0 {
		t.Errorf("summary crashes/restarts/fault drops = %d/%d/%d, want 1/1/>0", s.Crashes, s.Restarts, s.FaultDrops)
	}
	if probs := n.AuditProblems(); len(probs) != 0 {
		t.Errorf("conservation problems after crash+restart: %v", probs)
	}
}

// TestHostCrashParkedNoStall pins the progress-clock contract: a parked
// (crashed) flow contributes no outstanding bytes, so a blackout many times
// longer than the stall window must NOT trip the progress supervisor — the
// clock restarts when the rebuilt window reopens, and the transfer still
// completes.
func TestHostCrashParkedNoStall(t *testing.T) {
	p := nodeTestParams(AlgMLCC)
	p.Guard = &guard.Config{StallK: 4} // stall window ≈ 4×crossRTT ≈ 0.9 ms
	p.Fault = &fault.Plan{Seed: 1, Nodes: []fault.NodeEvent{
		{At: sim.Millisecond, Node: "host0", Action: fault.HostCrash},
		{At: 21 * sim.Millisecond, Node: "host0", Action: fault.HostRestart},
	}}
	n := Dumbbell(p)
	n.Guard.SetOutput(new(bytes.Buffer))
	f := n.AddFlow(0, 1, 4<<20, 500*sim.Microsecond)
	n.Run(60 * sim.Millisecond)

	if n.Guard.Stalls != 0 {
		t.Errorf("guard counted %d stalls across a 20 ms parked blackout, want 0", n.Guard.Stalls)
	}
	if halted, reason := n.Halted(); halted {
		t.Errorf("run halted during a survivable crash: %s", reason)
	}
	if !f.Done || f.Aborted {
		t.Errorf("flow done=%v aborted=%v, want completed after restart", f.Done, f.Aborted)
	}
}

// TestSwitchFailRecoverAuditClean pins the switch-failure path end to end: the
// DCI drains its buffered frames into the ledger at Fail (so the books still
// close), go-back-N rides the blackout on RTO retransmissions, and the flow
// completes after Recover.
func TestSwitchFailRecoverAuditClean(t *testing.T) {
	// A Clos build under DCQCN: two 100G spine feeds funnel into the 100G
	// long haul and the rate controller is still ramping at 1.5 ms, so dci0
	// carries a multi-megabyte standing queue when the blackout lands and
	// Fail has real frames to fold into the ledger. (The dumbbell can never
	// queue at the DCI — one 100G in, one 100G out — and MLCC's near-source
	// loop would keep it drained anyway, which is the paper's point.)
	p := nodeTestParams(AlgDCQCN)
	p.Audit = audit.New()
	p.SpinesPerDC = 2
	p.LeavesPerDC = 2
	p.HostsPerLeaf = 4
	p.Fault = &fault.Plan{Seed: 1, Nodes: []fault.NodeEvent{
		{At: 1500 * sim.Microsecond, Node: "dci0", Action: fault.SwitchFail},
		{At: 5 * sim.Millisecond, Node: "dci0", Action: fault.SwitchRecover},
	}}
	n := TwoDC(p)
	half := n.NumHosts() / 2
	var crosses []*host.Flow
	for i := 0; i < 6; i++ {
		crosses = append(crosses, n.AddFlow(i, half+i, 4<<20,
			500*sim.Microsecond+sim.Time(i)*10*sim.Microsecond))
	}
	intra := n.AddFlow(half+6, half+7, 1<<20, sim.Millisecond)
	n.Run(100 * sim.Millisecond)

	d := n.DCIs[0]
	if d.Fails != 1 || d.Recovers != 1 || d.Failed() {
		t.Fatalf("dci0 fails/recovers/failed = %d/%d/%v, want 1/1/false", d.Fails, d.Recovers, d.Failed())
	}
	if d.Drained == 0 {
		t.Error("dci0 drained no frames at Fail — the blackout hit an empty switch, scenario too weak")
	}
	if s := n.Summary(); s.SwitchFails != 1 || s.SwitchRecovers != 1 || s.FaultDrops == 0 {
		t.Errorf("summary switch fails/recovers/fault drops = %d/%d/%d, want 1/1/>0", s.SwitchFails, s.SwitchRecovers, s.FaultDrops)
	}
	for i, c := range crosses {
		if !c.Done || c.Aborted {
			t.Errorf("cross flow %d done=%v aborted=%v, want ridden through on RTO", i, c.Done, c.Aborted)
		}
	}
	if !intra.Done {
		t.Errorf("DC-1 intra flow did not complete — a dci0 failure must not strand the far DC")
	}
	if n.Hosts[0].Retransmits == 0 {
		t.Error("no retransmissions across a 3 ms switch blackout — go-back-N never engaged")
	}
	if probs := n.AuditProblems(); len(probs) != 0 {
		t.Errorf("conservation problems after fail+drain+recover: %v", probs)
	}
}

// TestGuardStallHaltsRun pins the progress supervisor's teeth in-sim: a
// permanent DCI blackout with an unbounded retransmission budget freezes
// acked bytes while the window stays open, so the guard must dump, count one
// stall and halt the run long before its deadline.
func TestGuardStallHaltsRun(t *testing.T) {
	p := nodeTestParams(AlgMLCC)
	p.MaxRetrans = -1 // retry forever: nothing aborts, the run just goes nowhere
	p.RTOMin = 50 * sim.Millisecond
	p.RTOMax = 50 * sim.Millisecond     // first rewind far beyond the stall window
	p.Guard = &guard.Config{StallK: 16} // ≈ 3.5 ms of silence at this geometry
	p.Fault = &fault.Plan{Seed: 1, Nodes: []fault.NodeEvent{
		{At: 2 * sim.Millisecond, Node: "dci0", Action: fault.SwitchFail},
	}}
	n := Dumbbell(p)
	n.Guard.SetOutput(new(bytes.Buffer))
	n.AddFlow(0, 2, 4<<20, 500*sim.Microsecond)
	n.Run(200 * sim.Millisecond)

	halted, reason := n.Halted()
	if !halted {
		t.Fatalf("run idled to its deadline (now=%v) instead of halting on the stall", n.Now())
	}
	if !strings.Contains(reason, "progress stalled") {
		t.Errorf("halt reason %q does not describe the stall", reason)
	}
	if n.Guard.Stalls != 1 {
		t.Errorf("guard counted %d stalls, want exactly 1", n.Guard.Stalls)
	}
	if n.Now() >= 50*sim.Millisecond {
		t.Errorf("halt landed at %v — after the first RTO rewind, not on the guard's clock", n.Now())
	}
}

// TestGuardDefaultPatienceCoversRTOBackoff pins the stall supervisor's
// default patience on a short haul: with a cross-DC RTT of tens of µs, 64
// RTTs are a few ms, shorter than the backed-off go-back-N timeouts a
// long-haul blackout costs its senders. The default is floored at 16 RTO
// floors, so a blackout the senders recover from is no stall.
func TestGuardDefaultPatienceCoversRTOBackoff(t *testing.T) {
	p := nodeTestParams(AlgMLCC)
	p.LongHaulDelay = 10 * sim.Microsecond
	p.Guard = &guard.Config{}
	p.Fault = &fault.Plan{Seed: 1, Events: []fault.Event{
		{At: sim.Millisecond, Link: "longhaul", Action: fault.LinkDown},
		{At: 4 * sim.Millisecond, Link: "longhaul", Action: fault.LinkUp},
	}}
	n := Dumbbell(p)
	if rtt := n.crossRTT(); 64*rtt >= 16*host.DefaultRTOMin {
		t.Fatalf("cross-DC RTT %v: 64 RTTs already cover 16 RTO floors", rtt)
	}
	n.Guard.SetOutput(new(bytes.Buffer))
	f := n.AddFlow(0, 2, 4<<20, 500*sim.Microsecond)
	n.Run(100 * sim.Millisecond)

	if n.Guard.Stalls != 0 {
		_, reason := n.Halted()
		t.Fatalf("guard counted %d stalls at default patience (%s)", n.Guard.Stalls, reason)
	}
	if !f.Done {
		t.Fatal("the cross-DC flow did not recover from the blackout")
	}
}

// TestFBCorruptedCountsEachCorruption pins that a host counts every INT
// corruption its feedback filter applies, not every frame it touches: with
// two rules corrupting host0's feedback, some frames are corrupted twice,
// and FBCorrupted still equals the filter's fb_corrupt flight-recorder
// events one for one.
func TestFBCorruptedCountsEachCorruption(t *testing.T) {
	p := nodeTestParams(AlgHPCC) // HPCC's ACKs echo an INT stack
	tel := metrics.New(metrics.Options{Metrics: true, FlightRecorderSize: 1 << 18})
	p.Telemetry = tel
	p.Fault = &fault.Plan{Seed: 1, Feedback: []fault.FeedbackRule{
		{Host: "host0", Corrupt: 0.5}, {Host: "host0", Corrupt: 0.5},
	}}
	n := Dumbbell(p)
	n.AddFlow(0, 1, 256<<10, 0)
	n.Run(10 * sim.Millisecond)

	events := 0
	frames := map[sim.Time]bool{} // one feedback frame reaches host0 at a time
	for _, e := range tel.FlightEvents() {
		if e.Kind == metrics.EvFBCorrupt {
			events++
			frames[e.T] = true
		}
	}
	s := n.Summary()
	if s.FBCorrupted == 0 || s.FBCorrupted != int64(events) || n.Hosts[0].FBCorrupted != s.FBCorrupted {
		t.Fatalf("FBCorrupted = %d (host0 %d), want the %d fb_corrupt events, > 0",
			s.FBCorrupted, n.Hosts[0].FBCorrupted, events)
	}
	if len(frames) >= events {
		t.Errorf("%d corruptions over %d frames: no frame was corrupted by both rules", events, len(frames))
	}
	if v, ok := tel.Registry().Value("cc.fb.corrupted"); !ok || int64(v) != s.FBCorrupted {
		t.Errorf("cc.fb.corrupted = (%v, %v), want %d", v, ok, s.FBCorrupted)
	}
}
