package audit

import (
	"strings"
	"testing"

	"mlcc/internal/pkt"
)

// wantViolation runs fn and asserts it panics with an audit violation
// containing frag.
func wantViolation(t *testing.T, frag string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected audit violation containing %q, got none", frag)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, frag) {
			t.Fatalf("violation %v does not contain %q", r, frag)
		}
	}()
	fn()
}

func TestCleanFlowDrains(t *testing.T) {
	l := New()
	l.OnFlowStart(1, 3000)
	l.OnInject(1, 0, 1500)
	l.OnInject(1, 1500, 1500)
	l.OnDeliver(1, 0, 1500)
	l.OnAckAdvance(1, 0, 1500)
	l.OnDeliver(1, 1500, 1500)
	l.OnFlowDone(1)
	l.OnAckAdvance(1, 1500, 3000)
	for _, drained := range []bool{false, true} {
		if probs := l.Problems(drained); len(probs) != 0 {
			t.Fatalf("clean flow, drained=%v: %v", drained, probs)
		}
	}
	r := l.Flow(1)
	if r == nil || !r.done || r.Fates[Injected].Bytes != 3000 || r.Fates[Delivered].Bytes != 3000 {
		t.Fatalf("bad record: %+v", r)
	}
	if !strings.Contains(l.Summary(), "flows=1 done=1") {
		t.Fatalf("summary: %s", l.Summary())
	}
}

func TestUnaccountedFrameOnlyWhenDrained(t *testing.T) {
	l := New()
	l.OnFlowStart(1, 3000)
	l.OnInject(1, 0, 1500)
	l.OnInject(1, 1500, 1500)
	l.OnDeliver(1, 0, 1500)
	// One frame is still somewhere: fine at a deadline cut, a violation once
	// the pool reports fully drained.
	if probs := l.Problems(false); len(probs) != 0 {
		t.Fatalf("undrained in-flight flagged: %v", probs)
	}
	probs := l.Problems(true)
	if len(probs) != 1 || !strings.Contains(probs[0], "never delivered or dropped") {
		t.Fatalf("drained leak not flagged: %v", probs)
	}
}

func TestDropsBalanceTheLedger(t *testing.T) {
	l := New()
	pool := pkt.NewPool()
	l.OnFlowStart(1, 4500)
	l.OnInject(1, 0, 1500)
	l.OnInject(1, 1500, 1500)
	l.OnInject(1, 3000, 1500)
	l.OnWREDDrop(1, 1500)
	d := pool.NewData(1, 1, 2, 1500, 1500)
	l.OnFaultDrop(d, true) // corruption
	pool.Put(d)
	d = pool.NewData(1, 1, 2, 3000, 1500)
	l.OnFaultDrop(d, false) // admin-down
	pool.Put(d)
	if probs := l.Problems(true); len(probs) != 0 {
		t.Fatalf("fully dropped flow should balance: %v", probs)
	}
	r := l.Flow(1)
	if r.Fates[WRED] != (count{1, 1500}) || r.Fates[Corrupt] != (count{1, 1500}) || r.Fates[Down] != (count{1, 1500}) {
		t.Fatalf("fate buckets: %+v", r)
	}
}

func TestOverAccountingIsAlwaysAViolation(t *testing.T) {
	l := New()
	l.OnFlowStart(1, 1500)
	l.OnInject(1, 0, 1500)
	l.OnWREDDrop(1, 1500)
	l.OnWREDDrop(1, 1500) // the same frame cannot terminate twice
	for _, drained := range []bool{false, true} {
		probs := l.Problems(drained)
		found := false
		for _, p := range probs {
			if strings.Contains(p, "over-accounted") {
				found = true
			}
		}
		if !found {
			t.Fatalf("drained=%v: over-accounting not flagged: %v", drained, probs)
		}
	}
}

func TestControlFaultDropsHaveNoFlow(t *testing.T) {
	l := New()
	pool := pkt.NewPool()
	c := pool.NewControl(pkt.Ack, 7, 1, 2)
	l.OnFaultDrop(c, false)
	pool.Put(c)
	if l.controlFaultDrops != 1 {
		t.Fatalf("control drops = %d", l.controlFaultDrops)
	}
	if r := l.Flow(7); r != nil {
		t.Fatalf("control drop created a flow record: %+v", r)
	}
}

func TestAbortRecordsStrandedBytes(t *testing.T) {
	l := New()
	l.OnFlowStart(1, 3000)
	l.OnInject(1, 0, 1500)
	l.OnDeliver(1, 0, 1500)
	l.OnAckAdvance(1, 0, 1500)
	l.OnFlowAbort(1)
	if r := l.Flow(1); !r.Aborted || r.AbortUnacked != 1500 {
		t.Fatalf("abort record: %+v", r)
	}
	if probs := l.Problems(true); len(probs) != 0 {
		t.Fatalf("aborted-but-balanced flow flagged: %v", probs)
	}
}

func TestGoBackNDupAndGapCounting(t *testing.T) {
	l := New()
	l.OnFlowStart(1, 4500)
	l.OnInject(1, 0, 1500)
	l.OnInject(1, 1500, 1500)
	l.OnInject(1, 3000, 1500)
	l.OnDeliver(1, 0, 1500)    // prefix -> 1500
	l.OnDeliver(1, 3000, 1500) // gap (frame 1500 lost then retransmitted)
	l.OnInject(1, 1500, 1500)  // go-back-N retransmission
	l.OnInject(1, 3000, 1500)
	l.OnDeliver(1, 1500, 1500) // prefix -> 3000
	l.OnDeliver(1, 3000, 1500) // prefix -> 4500
	l.OnFlowDone(1)
	r := l.Flow(1)
	if r.gapPkts != 1 || r.dupPkts != 0 || r.recvPrefix != 4500 {
		t.Fatalf("dup/gap accounting: %+v", r)
	}
	// The first copy of frame 1500 never terminated -> in-flight 1 frame.
	if probs := l.Problems(false); len(probs) != 0 {
		t.Fatalf("undrained: %v", probs)
	}
	l.OnWREDDrop(1, 1500) // its true fate arrives
	if probs := l.Problems(true); len(probs) != 0 {
		t.Fatalf("drained after fate: %v", probs)
	}
}

func TestMidRunViolationsPanic(t *testing.T) {
	t.Run("inject beyond size", func(t *testing.T) {
		l := New()
		l.OnFlowStart(1, 1000)
		wantViolation(t, "beyond size", func() { l.OnInject(1, 0, 1500) })
	})
	t.Run("deliver never injected", func(t *testing.T) {
		l := New()
		l.OnFlowStart(1, 3000)
		wantViolation(t, "never injected", func() { l.OnDeliver(1, 0, 1500) })
	})
	t.Run("ack backward", func(t *testing.T) {
		l := New()
		l.OnFlowStart(1, 3000)
		l.OnInject(1, 0, 1500)
		l.OnDeliver(1, 0, 1500)
		l.OnAckAdvance(1, 0, 1500)
		wantViolation(t, "desync", func() { l.OnAckAdvance(1, 0, 1500) })
	})
	t.Run("ack beyond receiver prefix", func(t *testing.T) {
		l := New()
		l.OnFlowStart(1, 3000)
		l.OnInject(1, 0, 1500)
		wantViolation(t, "receiver prefix", func() { l.OnAckAdvance(1, 0, 1500) })
	})
	t.Run("done twice", func(t *testing.T) {
		l := New()
		l.OnFlowStart(1, 1500)
		l.OnInject(1, 0, 1500)
		l.OnDeliver(1, 0, 1500)
		l.OnFlowDone(1)
		wantViolation(t, "done twice", func() { l.OnFlowDone(1) })
	})
}

func TestNilLedgerIsInert(t *testing.T) {
	var l *Ledger
	pool := pkt.NewPool()
	l.OnFlowStart(1, 100)
	l.OnInject(1, 0, 100)
	l.OnDeliver(1, 0, 100)
	l.OnAckAdvance(1, 0, 100)
	l.OnFlowDone(1)
	l.OnFlowAbort(1)
	l.OnWREDDrop(1, 100)
	p := pool.NewControl(pkt.Ack, 1, 1, 2)
	l.OnFaultDrop(p, false)
	pool.Put(p)
	l.AddLink("x", nil, nil)
	l.SetRecorder(nil)
	if l.Problems(true) != nil || l.Flows() != nil || l.Flow(1) != nil {
		t.Fatal("nil ledger not inert")
	}
	if l.Summary() != "audit: off" {
		t.Fatalf("nil summary: %s", l.Summary())
	}
}

// TestPartialShardLedgersMerge models a cross-DC flow in a sharded run: the
// sender's hooks land in one shard-local ledger, the receiver's in another.
// Each partial ledger must tolerate seeing only its half (deliveries it never
// saw injected, acks beyond its zero receiver prefix), and Merged must
// recombine the halves into closed books.
func TestPartialShardLedgersMerge(t *testing.T) {
	sender, receiver := New(), New()
	sender.SetPartial(true)
	receiver.SetPartial(true)

	sender.OnFlowStart(7, 2000)
	sender.OnInject(7, 0, 1000)
	sender.OnInject(7, 1000, 1000)
	// On a full ledger these deliveries would trip the never-injected check.
	receiver.OnDeliver(7, 0, 1000)
	receiver.OnDeliver(7, 1000, 1000)
	receiver.OnFlowDone(7)
	// On a full ledger this ack would trip the receiver-prefix check.
	sender.OnAckAdvance(7, 0, 2000)

	m := Merged(sender, receiver)
	if probs := m.Problems(true); len(probs) != 0 {
		t.Fatalf("merged books dirty: %v", probs)
	}
	r := m.Flow(7)
	if r == nil || !r.started || !r.done {
		t.Fatalf("merged flow record incomplete: %+v", r)
	}
	if r.Size != 2000 || r.AckedMax != 2000 || r.recvPrefix != 2000 {
		t.Fatalf("merged prefixes wrong: size=%d acked=%d recv=%d", r.Size, r.AckedMax, r.recvPrefix)
	}
	if r.Fates[Injected] != (count{2, 2000}) || r.Fates[Delivered] != (count{2, 2000}) {
		t.Fatalf("merged counters wrong: injected=%+v delivered=%+v", r.Fates[Injected], r.Fates[Delivered])
	}

	// The same one-sided books on a single partial ledger must NOT balance:
	// partial mode defers, it does not forgive.
	if probs := receiver.Problems(true); len(probs) == 0 {
		t.Fatal("one-sided receiver ledger reported clean books")
	}
}

// TestPartialSkipsOnlyCrossSideChecks pins that partial mode still enforces
// every single-sided invariant mid-run.
func TestPartialSkipsOnlyCrossSideChecks(t *testing.T) {
	l := New()
	l.SetPartial(true)
	l.OnFlowStart(1, 1000)
	wantViolation(t, "beyond size", func() { l.OnInject(1, 500, 1000) })

	l2 := New()
	l2.SetPartial(true)
	l2.OnFlowStart(2, 1000)
	l2.OnInject(2, 0, 1000)
	wantViolation(t, "moved backward", func() { l2.OnAckAdvance(2, 0, 0) })
}

// TestRecordsByFlowID pins the ledger's id-indexed records: a shard-local
// ledger sees a sparse subset of the ids, in any order, and keeps creation
// order for its reports; ids with no record, zero, negative or past the end
// have no record; and a hook for an id below 1 is a violation.
func TestRecordsByFlowID(t *testing.T) {
	l := New()
	for _, id := range []pkt.FlowID{9, 3, 5} {
		l.OnFlowStart(id, 1000)
		l.OnInject(id, 0, 1000)
		l.OnDeliver(id, 0, 1000)
		l.OnAckAdvance(id, 0, 1000)
		l.OnFlowDone(id)
	}
	var order []pkt.FlowID
	for _, r := range l.Flows() {
		order = append(order, r.id)
	}
	if len(order) != 3 || order[0] != 9 || order[1] != 3 || order[2] != 5 {
		t.Fatalf("creation order %v, want [9 3 5]", order)
	}
	for _, id := range []pkt.FlowID{3, 5, 9} {
		if r := l.Flow(id); r == nil || r.id != id || r.Fates[Delivered] != (count{1, 1000}) {
			t.Fatalf("Flow(%d) = %+v", id, r)
		}
	}
	for _, id := range []pkt.FlowID{0, -1, 1, 4, 8, 10, 1 << 30} {
		if r := l.Flow(id); r != nil {
			t.Errorf("Flow(%d) = %+v, want nil", id, r)
		}
	}
	if probs := l.Problems(true); probs != nil {
		t.Fatalf("sparse clean books flagged: %v", probs)
	}
	if sum := l.Summary(); !strings.Contains(sum, "flows=3 done=3 ") {
		t.Fatalf("summary %q", sum)
	}
	wantViolation(t, "flow id 0 out of range", func() { l.OnInject(0, 0, 1000) })
	wantViolation(t, "flow id -2 out of range", func() { l.OnWREDDrop(-2, 1000) })
}
