package core

import (
	"mlcc/internal/cc"
	"mlcc/internal/sim"
)

// TargetDelay is D_t, the queuing delay DQM steers each receiver-side PFQ
// toward (Eq. 5): a PFQ drained at rate R settles at R·D_t bytes.
const TargetDelay = sim.Millisecond

// DQMParams parameterizes the DCI-switch Queue Management algorithm
// (§3.3.1, Algorithm 2).
type DQMParams struct {
	Theta sim.Time // θ: time to transform the queuing delay from D_pre to D_t
	m     int      // m: R_credit smoothing history length
	alpha float64  // α: token-bucket gain

	RTTc sim.Time // cross-datacenter base RTT (RTT_C)
	RTTd sim.Time // intra-datacenter base RTT (RTT_D)

	MTU     int      // bytes
	MaxRate sim.Rate // ceiling for R̄_DQM (receiver NIC line rate)
}

// DefaultDQMParams returns the paper's evaluation settings: θ=18 ms,
// D_t=1 ms, m=5, α=0.5. RTTc/RTTd/MTU/MaxRate are topology-dependent and
// filled in by the deployment (internal/dci via internal/topo).
func DefaultDQMParams() DQMParams {
	return DQMParams{
		Theta: 18 * sim.Millisecond,
		m:     5,
		alpha: 0.5,
	}
}

// DQM implements the per-PFQ queue-management algorithm run by the
// receiver-side DCI switch. One instance manages one flow's virtual queue.
//
// Per credit round (one RTT_D, signalled by a fresh R_credit on an ACK) it
// predicts the enqueue rate over the next RTT_C from the R_DQM rates it
// previously advertised (Eq. 2), predicts the queue length (Eq. 3) and the
// queuing delay (Eq. 4), and derives the raw end-to-end rate R_DQM_i
// (Eq. 5). Per dequeued data packet it advances the token bucket (Eq. 6–7)
// and the dynamic window dw (Eq. 8). The advertised rate is the smoothed
// R̄_DQM = R_credit + dw·MTU/RTT_C (Eq. 9).
type DQM struct {
	p DQMParams
	n int // RTT_C / RTT_D (Eq. 1): R_DQM history length

	rdqmHist    []sim.Rate // ring of the last n R_DQM_i values
	rdqmIdx     int
	rcreditHist []sim.Rate // ring of the last m R_credit values
	rcredIdx    int

	rdqm    sim.Rate // latest raw R_DQM_i
	rcredit sim.Rate // latest R_credit
	token   float64
	dw      float64

	// Diagnostics.
	Rounds int64
}

// NewDQM builds a DQM controller; initRate seeds the histories (the PFQ
// initial rate, i.e. the sender's line rate).
func NewDQM(p DQMParams, initRate sim.Rate) *DQM {
	if p.RTTd <= 0 || p.RTTc <= 0 {
		panic("core: DQM requires positive RTTc and RTTd")
	}
	n := int(p.RTTc / p.RTTd)
	if n < 1 {
		n = 1
	}
	if p.m < 1 {
		p.m = 1
	}
	d := &DQM{
		p:           p,
		n:           n,
		rdqmHist:    make([]sim.Rate, n),
		rcreditHist: make([]sim.Rate, p.m),
		rdqm:        initRate,
		rcredit:     initRate,
	}
	for i := range d.rdqmHist {
		d.rdqmHist[i] = initRate
	}
	for i := range d.rcreditHist {
		d.rcreditHist[i] = initRate
	}
	return d
}

// predictedEnqueueRate returns R_pre_eq (Eq. 2): the average of the last n
// advertised R_DQM values, which become the enqueue rate one RTT_C later.
func (d *DQM) predictedEnqueueRate() sim.Rate {
	var sum int64
	for _, r := range d.rdqmHist {
		sum += int64(r)
	}
	return sim.Rate(sum / int64(len(d.rdqmHist)))
}

// avgRCredit smooths the dequeue rate over the last m values (Eq. 4's
// denominator).
func (d *DQM) avgRCredit() sim.Rate {
	var sum int64
	for _, r := range d.rcreditHist {
		sum += int64(r)
	}
	return sim.Rate(sum / int64(len(d.rcreditHist)))
}

// OnCreditRound runs one DQM decision (Algorithm 2 lines 1–10): rcredit is
// the fresh dequeue rate published by the receiver; qlen is the current PFQ
// backlog Q_c in bytes. It returns the raw R_DQM_i.
func (d *DQM) OnCreditRound(rcredit sim.Rate, qlen int64) sim.Rate {
	d.Rounds++
	d.rcredit = rcredit
	d.rcreditHist[d.rcredIdx] = rcredit
	d.rcredIdx = (d.rcredIdx + 1) % len(d.rcreditHist)

	// Eq. 3: predicted queue after one RTT_C at current dequeue rate.
	preEq := d.predictedEnqueueRate()
	qPre := float64(preEq-rcredit)/8*d.p.RTTc.Seconds() + float64(qlen)
	if qPre < 0 {
		qPre = 0
	}
	// Eq. 4: predicted queuing delay at the smoothed dequeue rate.
	avg := d.avgRCredit()
	if avg < cc.MinRate {
		avg = cc.MinRate
	}
	dPre := qPre * 8 / float64(avg) // seconds

	// Eq. 5: close the delay gap over θ.
	adjust := 1 - (dPre-TargetDelay.Seconds())/d.p.Theta.Seconds()
	if adjust < 0 {
		adjust = 0
	}
	rdqm := sim.Rate(float64(rcredit) * adjust)
	rdqm = sim.ClampRate(rdqm, cc.MinRate, d.p.MaxRate)
	d.rdqm = rdqm
	d.rdqmHist[d.rdqmIdx] = rdqm
	d.rdqmIdx = (d.rdqmIdx + 1) % len(d.rdqmHist)
	return rdqm
}

// OnPacketOut advances the token bucket and dynamic window for one dequeued
// data packet (Eq. 6–8).
func (d *DQM) OnPacketOut() {
	ratio := 1.0
	if d.rcredit > 0 {
		ratio = float64(d.rdqm) / float64(d.rcredit)
	}
	inc := d.p.alpha * ratio
	if inc > 1 {
		inc = 1
	}
	d.token += inc
	if d.token >= 1 {
		d.token -= 1
		d.dw++
	} else {
		d.dw--
	}
	// Anti-windup: dw walks R̄_DQM gradually from R_credit toward the raw
	// target R_DQM_i, never beyond it. Without this bound the per-packet
	// ±1 integration saturates at Gbps packet rates and R̄_DQM pegs at its
	// clamp regardless of θ, destroying Eq. 5's proportional control.
	step := float64(d.p.MTU) * 8 / d.p.RTTc.Seconds() // bits/s per dw unit
	gap := (float64(d.rdqm) - float64(d.rcredit)) / step
	lo, hi := gap, 0.0
	if gap > 0 {
		lo, hi = 0, gap
	}
	if d.dw < lo {
		d.dw = lo
	}
	if d.dw > hi {
		d.dw = hi
	}
}

// Smoothed returns R̄_DQM (Eq. 9), the rate stamped onto ACKs.
func (d *DQM) Smoothed() sim.Rate {
	step := float64(d.p.MTU) * 8 / d.p.RTTc.Seconds()
	r := sim.Rate(float64(d.rcredit) + d.dw*step)
	return sim.ClampRate(r, cc.MinRate, d.p.MaxRate)
}
