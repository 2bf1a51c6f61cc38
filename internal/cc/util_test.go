package cc

import (
	"math"
	"testing"
	"testing/quick"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// mkHops builds an INT stack with the given queue lengths and a tx counter
// advancing at the given utilization of a 100G link over dt.
func mkHops(t0 sim.Time, dt sim.Time, util float64, qlens ...int64) ([]pkt.INTHop, []pkt.INTHop) {
	band := 100 * sim.Gbps
	bytesMoved := int64(util * float64(band) / 8 * dt.Seconds())
	var a, b []pkt.INTHop
	for i, q := range qlens {
		a = append(a, pkt.INTHop{Node: pkt.NodeID(i), QLen: q, TxBytes: 0, TS: t0, Band: band})
		b = append(b, pkt.INTHop{Node: pkt.NodeID(i), QLen: q, TxBytes: bytesMoved, TS: t0 + dt, Band: band})
	}
	return a, b
}

func TestUtilEstimatorPrimesOnFirstSample(t *testing.T) {
	e := newUtilEstimator(25 * sim.Microsecond)
	a, _ := mkHops(0, 10*sim.Microsecond, 0.5, 0)
	if _, ok := e.update(a); ok {
		t.Fatal("first sample should only prime")
	}
	if _, ok := e.update(nil); ok {
		t.Fatal("empty hops should not update")
	}
}

func TestUtilEstimatorMeasuresTxRate(t *testing.T) {
	T := 25 * sim.Microsecond
	e := newUtilEstimator(T)
	a, b := mkHops(0, T, 0.80, 0)
	e.update(a)
	u, ok := e.update(b)
	if !ok {
		t.Fatal("second sample did not update")
	}
	// Zero queue, 80% txRate, tau == T so EWMA weight is 1.
	if math.Abs(u-0.80) > 0.01 {
		t.Fatalf("U = %v, want 0.80", u)
	}
}

func TestUtilEstimatorIncludesQueueTerm(t *testing.T) {
	T := 25 * sim.Microsecond
	e := newUtilEstimator(T)
	// Queue of one BDP at 100G/25us = 312500 bytes should add 1.0.
	bdp := sim.BDPBytes(100*sim.Gbps, T)
	a, b := mkHops(0, T, 0.5, bdp)
	e.update(a)
	u, _ := e.update(b)
	if math.Abs(u-1.5) > 0.02 {
		t.Fatalf("U = %v, want ≈1.5 (0.5 rate + 1.0 queue)", u)
	}
}

func TestUtilEstimatorTakesMaxHop(t *testing.T) {
	T := 25 * sim.Microsecond
	e := newUtilEstimator(T)
	bdp := sim.BDPBytes(100*sim.Gbps, T)
	a, b := mkHops(0, T, 0.5, 0, 2*bdp, 0)
	e.update(a)
	u, _ := e.update(b)
	if u < 2.0 {
		t.Fatalf("U = %v, want ≥ 2.0 from the congested middle hop", u)
	}
}

func TestUtilEstimatorResetsOnPathChange(t *testing.T) {
	e := newUtilEstimator(25 * sim.Microsecond)
	a, b := mkHops(0, 25*sim.Microsecond, 0.9, 0)
	e.update(a)
	// Different node id: must re-prime, not update.
	b[0].Node = 99
	if _, ok := e.update(b); ok {
		t.Fatal("path change treated as continuation")
	}
}

func TestUtilEstimatorEWMA(t *testing.T) {
	T := 100 * sim.Microsecond
	e := newUtilEstimator(T)
	// dt = T/10 → EWMA weight 0.1 per sample.
	dt := T / 10
	band := 100 * sim.Gbps
	moved := int64(float64(band) / 8 * dt.Seconds()) // 100% util
	prev := pkt.INTHop{Node: 1, QLen: 0, TxBytes: 0, TS: 0, Band: band}
	e.update([]pkt.INTHop{prev})
	u := 0.0
	for i := 1; i <= 30; i++ {
		cur := prev
		cur.TxBytes += moved
		cur.TS += dt
		u, _ = e.update([]pkt.INTHop{cur})
		prev = cur
	}
	// After 30 samples of weight 0.1, U ≈ 1-(0.9)^30 ≈ 0.96.
	if u < 0.9 || u > 1.01 {
		t.Fatalf("EWMA U = %v, want ≈0.96", u)
	}
}

func TestWindowControllerStartsAtLineRate(t *testing.T) {
	c := NewWindowController(25*sim.Microsecond, 25*sim.Gbps, 1000, 0.95, 5)
	r := c.Rate()
	if r < 24*sim.Gbps || r > 25*sim.Gbps {
		t.Fatalf("initial rate = %v", r)
	}
}

func TestWindowControllerBacksOffWhenOverUtilized(t *testing.T) {
	T := 25 * sim.Microsecond
	c := NewWindowController(T, 25*sim.Gbps, 1000, 0.95, 5)
	band := 100 * sim.Gbps
	bdp := sim.BDPBytes(band, T)
	prev := pkt.INTHop{Node: 1, QLen: 2 * bdp, TxBytes: 0, TS: 0, Band: band}
	c.OnFeedback([]pkt.INTHop{prev}, 0)
	acked := int64(0)
	for i := 1; i <= 50; i++ {
		cur := prev
		cur.TxBytes += int64(float64(band) / 8 * T.Seconds()) // 100% tx
		cur.TS += T
		acked += 25000
		c.OnFeedback([]pkt.INTHop{cur}, acked)
		prev = cur
	}
	// U ≈ 3 (1.0 rate + 2.0 queue): window must shrink well below BDP.
	if r := c.Rate(); r > 12*sim.Gbps {
		t.Fatalf("rate = %v, want strong back-off", r)
	}
}

func TestWindowControllerGrowsWhenIdle(t *testing.T) {
	T := 25 * sim.Microsecond
	c := NewWindowController(T, 25*sim.Gbps, 1000, 0.95, 5)
	// Force it down first.
	c.w = c.w / 10
	c.wc = c.w
	band := 100 * sim.Gbps
	prev := pkt.INTHop{Node: 1, QLen: 0, TxBytes: 0, TS: 0, Band: band}
	c.OnFeedback([]pkt.INTHop{prev}, 0)
	acked := int64(0)
	for i := 1; i <= 400; i++ {
		cur := prev
		cur.TxBytes += int64(0.10 * float64(band) / 8 * T.Seconds()) // 10% util
		cur.TS += T
		acked += 25000
		c.OnFeedback([]pkt.INTHop{cur}, acked)
		prev = cur
	}
	if r := c.Rate(); r < 10*sim.Gbps {
		t.Fatalf("rate = %v, want recovery toward line rate", r)
	}
}

func TestWindowControllerRateClamped(t *testing.T) {
	c := NewWindowController(25*sim.Microsecond, 25*sim.Gbps, 1000, 0.95, 5)
	f := func(w float64) bool {
		c.w = math.Abs(w)
		r := c.Rate()
		return r >= MinRate && r <= 25*sim.Gbps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: U is always non-negative and finite for arbitrary INT pairs.
func TestUtilEstimatorRobustProperty(t *testing.T) {
	f := func(q1, q2 uint32, txd uint32, dtUS uint16) bool {
		T := 25 * sim.Microsecond
		e := newUtilEstimator(T)
		band := 100 * sim.Gbps
		a := pkt.INTHop{Node: 1, QLen: int64(q1), TxBytes: 0, TS: 0, Band: band}
		b := pkt.INTHop{Node: 1, QLen: int64(q2), TxBytes: int64(txd), TS: sim.Time(dtUS) * sim.Microsecond, Band: band}
		e.update([]pkt.INTHop{a})
		u, _ := e.update([]pkt.INTHop{b})
		return u >= 0 && !math.IsNaN(u) && !math.IsInf(u, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
