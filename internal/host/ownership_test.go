package host

import (
	"testing"

	"mlcc/internal/cc"
	"mlcc/internal/link"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// TestOnlyOwningHostAnswers: transport state lives on the shared Flow, so
// ownership is checked, not implied — sender-side queries answer only on the
// flow's source, receiver-side queries only on its destination.
func TestOnlyOwningHostAnswers(t *testing.T) {
	r := newRig(t, basicSwitch(), basicHost())
	f := r.addFlow(1, 2, 1_000_000, 0)
	r.eng.RunUntil(50 * sim.Microsecond) // mid-transfer
	id := f.Info.ID
	if f.Done || r.a.ActiveSends() != 1 {
		t.Fatalf("want a flow in progress: done=%v active=%d", f.Done, r.a.ActiveSends())
	}

	if s := r.a.sendOf(id); s == nil || s.sender.Rate() == 0 || currentRTO(r.a, id) == 0 {
		t.Fatal("source host does not answer for its own flow")
	}
	if r.b.ReceivedBytes(id) == 0 {
		t.Fatal("destination host reports no received bytes mid-transfer")
	}
	if got := r.b.sendOf(id); got != nil {
		t.Errorf("sendOf on a non-source host = %v, want nil", got)
	}
	if got := r.a.ReceivedBytes(id); got != 0 {
		t.Errorf("ReceivedBytes on a non-destination host = %d, want 0", got)
	}
}

// TestFeedbackForInactiveFlowIsDiscarded: an ACK, CNP or Switch-INT for a
// flow that is not actively sending — finished, aborted, parked by a crash or
// never started — returns to the pool without reaching any CC sender, on the
// source host and on a bystander alike. Restart re-attaches the sender state.
func TestFeedbackForInactiveFlowIsDiscarded(t *testing.T) {
	kinds := []pkt.Kind{pkt.Ack, pkt.CNP, pkt.SwitchINT}
	callbacks := func(r *rig) (n int) {
		for _, s := range r.ccByID {
			n += s.acks + s.cnps + s.switchINTs
		}
		return n
	}
	// offer hands one feedback frame of each kind for f to both hosts and
	// reports how many CC callbacks fired.
	offer := func(t *testing.T, r *rig, f *Flow) int {
		t.Helper()
		before, was := r.pool.Outstanding(), callbacks(r)
		for _, h := range []*Host{r.a, r.b} {
			for _, k := range kinds {
				p := r.pool.NewControl(k, f.Info.ID, 2, 1)
				p.Seq = f.Info.Size
				h.Receive(p, h.Port())
			}
		}
		if out := r.pool.Outstanding(); out != before {
			t.Errorf("pool outstanding %d after feedback, want %d (frames not returned)", out, before)
		}
		return callbacks(r) - was
	}

	t.Run("finished", func(t *testing.T) {
		r := newRig(t, basicSwitch(), basicHost())
		f := r.addFlow(1, 2, 10_000, 0)
		r.eng.RunUntil(10 * sim.Millisecond)
		if !f.Done || f.send != nil {
			t.Fatalf("done=%v send=%v, want a finished flow with send cleared", f.Done, f.send)
		}
		if n := offer(t, r, f); n != 0 {
			t.Errorf("%d CC callbacks for a finished flow", n)
		}
	})

	t.Run("aborted", func(t *testing.T) {
		h := basicHost()
		h.RTOMin, h.RTOMax, h.MaxRetrans = 100*sim.Microsecond, 400*sim.Microsecond, 3
		r := newRig(t, basicSwitch(), h)
		r.a.Port().SetFaultHooks(&link.FaultHooks{Corrupt: func(*pkt.Packet) bool { return true }})
		f := r.addFlow(1, 2, 50_000, 0)
		r.eng.RunUntil(50 * sim.Millisecond)
		if !f.Aborted || f.send != nil {
			t.Fatalf("aborted=%v send=%v, want an aborted flow with send cleared", f.Aborted, f.send)
		}
		if n := offer(t, r, f); n != 0 {
			t.Errorf("%d CC callbacks for an aborted flow", n)
		}
	})

	t.Run("never started", func(t *testing.T) {
		r := newRig(t, basicSwitch(), basicHost())
		f := r.table.Add(cc.FlowInfo{Src: 1, Dst: 2, Size: 10_000, LinkRate: sim.Gbps, MTU: 1000}, sim.Second)
		if n := offer(t, r, f); n != 0 {
			t.Errorf("%d CC callbacks for a flow that never started", n)
		}
		if f.send != nil || f.started {
			t.Error("feedback touched a never-started flow")
		}
	})

	t.Run("crashed and parked, then restarted", func(t *testing.T) {
		r := newRig(t, basicSwitch(), basicHost())
		f := r.addFlow(1, 2, 1_000_000, 0)
		r.eng.RunUntil(50 * sim.Microsecond)
		r.a.Crash()
		if r.a.ParkedFlows() != 1 || f.send != nil {
			t.Fatalf("parked=%d send=%v, want the flow parked with send cleared", r.a.ParkedFlows(), f.send)
		}
		crashed := r.ccByID[f.Info.ID]
		if n := offer(t, r, f); n != 0 || !crashed.closed {
			t.Errorf("%d CC callbacks for a parked flow (sender closed=%v)", n, crashed.closed)
		}
		if r.a.sendOf(f.Info.ID) != nil {
			t.Error("parked flow still answers sender-side queries")
		}

		r.a.Restart()
		if f.send == nil || r.a.sendOf(f.Info.ID) == nil {
			t.Fatal("Restart did not re-attach sender state to the flow")
		}
		if r.ccByID[f.Info.ID] == crashed {
			t.Fatal("Restart reused the closed CC sender")
		}
		r.eng.RunUntil(20 * sim.Millisecond)
		if !f.Done || f.send != nil {
			t.Fatalf("restarted flow: done=%v send=%v", f.Done, f.send)
		}
	})
}

// TestTableDenseIDs pins the slice-backed registry: ids are 1..N in Add
// order, Get is nil outside that range, All is in ID order.
func TestTableDenseIDs(t *testing.T) {
	table := NewTable()
	var flows []*Flow
	for i := 0; i < 5; i++ {
		f := table.Add(cc.FlowInfo{Src: 1, Dst: 2, Size: int64(i)}, 0)
		if f.Info.ID != pkt.FlowID(i+1) {
			t.Fatalf("flow %d got id %d, want %d", i, f.Info.ID, i+1)
		}
		flows = append(flows, f)
	}
	for _, id := range []pkt.FlowID{0, -1, -1 << 31, 6, 1<<31 - 1} {
		if table.Get(id) != nil {
			t.Errorf("Get(%d) returned a flow, want nil", id)
		}
	}
	all := table.All()
	if len(all) != table.Len() {
		t.Fatalf("All returned %d flows, Len is %d", len(all), table.Len())
	}
	for i, f := range all {
		if f != flows[i] || table.Get(f.Info.ID) != f {
			t.Fatalf("All()[%d] is flow %d, want flow %d", i, f.Info.ID, i+1)
		}
	}
}
