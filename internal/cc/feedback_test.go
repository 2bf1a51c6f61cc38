package cc

import (
	"math"
	"testing"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

func TestValidINTStack(t *testing.T) {
	good := []pkt.INTHop{
		{Node: 1, QLen: 0, TxBytes: 100, TS: 5, Band: 100 * sim.Gbps},
		{Node: 2, QLen: 42, TxBytes: 0, TS: 0, Band: 25 * sim.Gbps},
	}
	if !ValidINTStack(nil) || !ValidINTStack(good) {
		t.Fatal("valid stacks rejected")
	}
	cases := map[string]func(h *pkt.INTHop){
		"zero band":        func(h *pkt.INTHop) { h.Band = 0 },
		"negative band":    func(h *pkt.INTHop) { h.Band = -h.Band },
		"negative qlen":    func(h *pkt.INTHop) { h.QLen = -1 },
		"negative txbytes": func(h *pkt.INTHop) { h.TxBytes = -5 },
		"negative ts":      func(h *pkt.INTHop) { h.TS = -sim.Nanosecond },
	}
	for name, corrupt := range cases {
		hops := append([]pkt.INTHop(nil), good...)
		corrupt(&hops[1])
		if ValidINTStack(hops) {
			t.Errorf("%s accepted", name)
		}
	}
	over := make([]pkt.INTHop, pkt.MaxINTHops+1)
	for i := range over {
		over[i] = pkt.INTHop{Node: pkt.NodeID(i), Band: sim.Gbps}
	}
	if ValidINTStack(over) {
		t.Error("oversize stack accepted")
	}
}

// TestUtilEstimatorRejectsRegressedTS pins the corruption guard: a sample
// whose timestamp runs backwards must be discarded WITHOUT becoming the new
// baseline — otherwise the next honest sample computes its delta against the
// corrupt one and reads a bogus (huge-dt) rate.
func TestUtilEstimatorRejectsRegressedTS(t *testing.T) {
	T := 25 * sim.Microsecond
	e := newUtilEstimator(T)
	a, b := mkHops(0, T, 0.80, 0)
	e.update(a)
	u1, ok := e.update(b)
	if !ok {
		t.Fatal("honest sample rejected")
	}

	// Corrupt: TS regressed below the remembered baseline.
	bad := append([]pkt.INTHop(nil), b...)
	bad[0].TS = b[0].TS - T/2
	bad[0].TxBytes += 1000
	if _, ok := e.update(bad); ok {
		t.Fatal("regressed-TS sample updated the estimate")
	}
	if e.U() != u1 {
		t.Fatalf("rejected sample moved U: %v -> %v", u1, e.U())
	}
	if e.rejected != 1 {
		t.Fatalf("rejected = %d, want 1", e.rejected)
	}

	// The next honest sample must still read ~80% against the PRE-corruption
	// baseline. If the corrupt sample had poisoned e.last, dt would span from
	// the regressed TS and the rate would come out wrong.
	c := append([]pkt.INTHop(nil), b...)
	c[0].TS += T
	c[0].TxBytes += b[0].TxBytes // another 80%-utilization interval
	u2, ok := e.update(c)
	if !ok {
		t.Fatal("post-corruption honest sample rejected")
	}
	if math.Abs(u2-0.80) > 0.01 {
		t.Fatalf("U after corruption = %v, want ≈0.80 (baseline was poisoned)", u2)
	}
}

// TestUtilEstimatorRejectsRegressedTxBytes: a regressed hop counter would
// yield a negative txRate and drag U below zero; the guard discards it.
func TestUtilEstimatorRejectsRegressedTxBytes(t *testing.T) {
	T := 25 * sim.Microsecond
	e := newUtilEstimator(T)
	a, b := mkHops(0, T, 0.50, 0)
	e.update(a)
	e.update(b)
	u1 := e.U()

	bad := append([]pkt.INTHop(nil), b...)
	bad[0].TS += T
	bad[0].TxBytes = b[0].TxBytes / 2 // counter ran backwards
	if _, ok := e.update(bad); ok {
		t.Fatal("regressed-TxBytes sample updated the estimate")
	}
	if e.U() != u1 || e.U() < 0 {
		t.Fatalf("U corrupted: %v (was %v)", e.U(), u1)
	}
	if e.rejected != 1 {
		t.Fatalf("rejected = %d, want 1", e.rejected)
	}
}

// TestUtilEstimatorDuplicateStackNoOp: an exact duplicate (a reordered copy
// of feedback already folded in) advances no hop clock. It must neither zero
// the EWMA through a tau=0 sample nor perturb the baseline.
func TestUtilEstimatorDuplicateStackNoOp(t *testing.T) {
	T := 25 * sim.Microsecond
	e := newUtilEstimator(T)
	a, b := mkHops(0, T, 0.80, 0)
	e.update(a)
	u1, _ := e.update(b)
	if u1 <= 0 {
		t.Fatalf("setup: U = %v", u1)
	}
	for i := 0; i < 3; i++ {
		if _, ok := e.update(b); ok {
			t.Fatal("duplicate stack reported an update")
		}
	}
	if e.U() != u1 {
		t.Fatalf("duplicates moved U: %v -> %v", u1, e.U())
	}
	// Duplicates are informationless, not corrupt: they don't count as
	// rejected.
	if e.rejected != 0 {
		t.Fatalf("rejected = %d, want 0", e.rejected)
	}
}

// TestWindowControllerReorderedAckSeq drives the controller with advancing
// feedback interleaved with reordered deliveries (duplicate INT stacks,
// regressed ack sequence numbers). The reference window and increase stage
// must never move backwards on stale input, and U must stay finite and
// non-negative throughout.
func TestWindowControllerReorderedAckSeq(t *testing.T) {
	T := 25 * sim.Microsecond
	c := NewWindowController(T, 25*sim.Gbps, 1000, 0.95, 5)
	band := 100 * sim.Gbps
	prev := pkt.INTHop{Node: 1, QLen: 0, TxBytes: 0, TS: 0, Band: band}
	c.OnFeedback([]pkt.INTHop{prev}, 0)
	acked := int64(0)
	for i := 1; i <= 40; i++ {
		cur := prev
		cur.TxBytes += int64(0.30 * float64(band) / 8 * T.Seconds())
		cur.TS += T
		acked += 25000
		c.OnFeedback([]pkt.INTHop{cur}, acked)
		prev = cur

		wc, stage, seq := c.wc, c.incStage, c.lastSeq
		// Reordered copies: same stack again, with ack numbers from the past.
		c.OnFeedback([]pkt.INTHop{cur}, acked-30000)
		c.OnFeedback([]pkt.INTHop{cur}, 0)
		if c.wc != wc || c.incStage != stage || c.lastSeq != seq {
			t.Fatalf("iter %d: stale delivery moved controller state: wc %v->%v stage %d->%d seq %d->%d",
				i, wc, c.wc, stage, c.incStage, seq, c.lastSeq)
		}
		if u := c.Est.U(); u < 0 || math.IsNaN(u) || math.IsInf(u, 0) {
			t.Fatalf("iter %d: U = %v", i, u)
		}
		if r := c.Rate(); r < MinRate || r > 25*sim.Gbps {
			t.Fatalf("iter %d: rate %v outside [MinRate, line rate]", i, r)
		}
	}
	// Advancing hops with a regressed ackSeq still update w (fresh congestion
	// signal) but must not advance the per-RTT reference state.
	cur := prev
	cur.TxBytes += int64(0.30 * float64(band) / 8 * T.Seconds())
	cur.TS += T
	stage, seq := c.incStage, c.lastSeq
	c.OnFeedback([]pkt.INTHop{cur}, acked-30000)
	if c.incStage < stage || c.lastSeq != seq {
		t.Fatalf("regressed ackSeq advanced reference state: stage %d->%d seq %d->%d",
			stage, c.incStage, seq, c.lastSeq)
	}
}
