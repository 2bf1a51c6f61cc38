package cc

import (
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// UtilEstimator implements HPCC's MeasureInflight: an EWMA of the maximum
// per-hop normalized inflight U = qlen/(B·T) + txRate/B over the hops
// reported in successive INT stacks. It is shared by HPCC, by MLCC's
// near-source loop (T = near RTT) and by MLCC's receiver-side credit loop
// (T = intra-DC RTT).
//
// Hops are matched positionally; when the path (hop count or node ids)
// changes, stale state is discarded.
type UtilEstimator struct {
	T        sim.Time // base RTT of the controlled segment
	last     []pkt.INTHop
	u        float64 // smoothed utilization
	init     bool
	rejected int64 // samples discarded by the corruption guards
}

// NewUtilEstimator returns an estimator for a control segment with base RTT t.
func NewUtilEstimator(t sim.Time) *UtilEstimator {
	return &UtilEstimator{T: t}
}

// U returns the current smoothed utilization estimate.
func (e *UtilEstimator) U() float64 { return e.u }

// Rejected reports how many samples the corruption guards discarded.
func (e *UtilEstimator) Rejected() int64 { return e.rejected }

// Reset discards all hop state.
func (e *UtilEstimator) Reset() {
	e.last = e.last[:0]
	e.init = false
	e.u = 0
}

// SameHops reports whether hop lists a and b cross the same nodes in the
// same order.
func SameHops(a, b []pkt.INTHop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node {
			return false
		}
	}
	return true
}

// Update folds a new INT stack into the estimate and returns the smoothed U.
// Returns (u, false) when this sample only primed the estimator or was
// rejected by the corruption guards.
//
// Guards: a structurally invalid stack (ValidINTStack) or one with a
// regressed per-hop TS or TxBytes relative to the remembered baseline is
// rejected WITHOUT overwriting e.last — a corrupted sample folded into the
// baseline would make the NEXT honest sample read wrong (a regressed TS
// yields a huge dt, a regressed TxBytes a huge txRate), which is worse than
// the corrupt sample itself. A stack with no hop advancing in time (an exact
// duplicate, e.g. a reordered copy) likewise leaves both the EWMA and the
// baseline untouched.
func (e *UtilEstimator) Update(hops []pkt.INTHop) (float64, bool) {
	if len(hops) == 0 {
		return e.u, false
	}
	if !ValidINTStack(hops) {
		e.rejected++
		return e.u, false
	}
	if !e.init || !SameHops(e.last, hops) {
		e.last = append(e.last[:0], hops...)
		e.init = true
		return e.u, false
	}
	for i := range hops {
		cur, prev := &hops[i], &e.last[i]
		if cur.TS < prev.TS || cur.TxBytes < prev.TxBytes {
			e.rejected++
			return e.u, false
		}
	}
	u := 0.0
	tau := e.T
	sawDT := false
	for i := range hops {
		cur, prev := &hops[i], &e.last[i]
		dt := cur.TS - prev.TS
		if dt <= 0 {
			continue
		}
		sawDT = true
		txRate := float64(cur.TxBytes-prev.TxBytes) * 8 / dt.Seconds()
		band := float64(cur.Band)
		qlen := cur.QLen
		if prev.QLen < qlen {
			// HPCC uses min(q(t0), q(t1)) to filter transient bursts.
			qlen = prev.QLen
		}
		ui := float64(qlen)*8/(band*e.T.Seconds()) + txRate/band
		if ui > u {
			u = ui
			tau = dt
		}
	}
	if !sawDT {
		// No hop advanced in time: an exact duplicate carries no new
		// information, so it must not zero the EWMA or touch the baseline.
		return e.u, false
	}
	if tau > e.T {
		tau = e.T
	}
	frac := float64(tau) / float64(e.T)
	e.u = (1-frac)*e.u + frac*u
	e.last = append(e.last[:0], hops...)
	return e.u, true
}

// WindowController implements HPCC's ComputeWind/UpdateWindow state machine
// on top of a UtilEstimator, yielding a pacing rate. It is parameterized so
// MLCC's loops can reuse it with segment-specific RTTs.
type WindowController struct {
	Est      *UtilEstimator
	Eta      float64  // target utilization (HPCC η, default 0.95)
	MaxStage int      // additive-increase stages per MI window
	WAI      float64  // additive increase in bytes per update
	MaxRate  sim.Rate // line rate ceiling

	wc       float64 // reference window (bytes)
	w        float64 // current window (bytes)
	incStage int
	lastSeq  int64 // per-RTT Wc update tracking
}

// NewWindowController builds a controller starting at line rate.
func NewWindowController(t sim.Time, maxRate sim.Rate, mtu int, eta float64, maxStage int) *WindowController {
	bdp := float64(sim.BDPBytes(maxRate, t))
	wai := bdp * (1 - eta) / float64(maxStage)
	if wai < float64(mtu)/8 {
		wai = float64(mtu) / 8
	}
	return &WindowController{
		Est:      NewUtilEstimator(t),
		Eta:      eta,
		MaxStage: maxStage,
		WAI:      wai,
		MaxRate:  maxRate,
		wc:       bdp,
		w:        bdp,
	}
}

// Window returns the current window in bytes.
func (c *WindowController) Window() float64 { return c.w }

// Rate converts the current window to a pacing rate over the segment RTT.
func (c *WindowController) Rate() sim.Rate {
	r := sim.Rate(c.w * 8 / c.Est.T.Seconds())
	return sim.ClampRate(r, MinRate, c.MaxRate)
}

// OnFeedback folds an INT stack into the window. ackSeq drives the per-RTT
// reference-window update (pass a monotone per-flow byte count).
func (c *WindowController) OnFeedback(hops []pkt.INTHop, ackSeq int64) {
	u, ok := c.Est.Update(hops)
	if !ok {
		return
	}
	updateWc := ackSeq > c.lastSeq
	if u >= c.Eta || c.incStage >= c.MaxStage {
		c.w = c.wc/(u/c.Eta) + c.WAI
		if updateWc {
			c.incStage = 0
			c.wc = c.w
		}
	} else {
		c.w = c.wc + c.WAI
		if updateWc {
			c.incStage++
			c.wc = c.w
		}
	}
	maxW := float64(sim.BDPBytes(c.MaxRate, c.Est.T))
	if c.w > maxW {
		c.w = maxW
	}
	minW := float64(sim.BDPBytes(MinRate, c.Est.T))
	if c.w < minW {
		c.w = minW
	}
	if updateWc {
		// Next window reference update happens one segment-RTT of bytes
		// later: approximate with current window worth of bytes.
		c.lastSeq = ackSeq + int64(c.w)
	}
}
