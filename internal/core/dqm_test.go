package core

import (
	"math"
	"testing"
	"testing/quick"

	"mlcc/internal/cc"
	"mlcc/internal/sim"
)

func dqmParams() DQMParams {
	p := DefaultDQMParams()
	p.RTTc = 6 * sim.Millisecond
	p.RTTd = 24 * sim.Microsecond
	p.MTU = 1000
	p.MaxRate = 25 * sim.Gbps
	return p
}

func TestDQMPipeLength(t *testing.T) {
	d := NewDQM(dqmParams(), 25*sim.Gbps)
	// Eq. 1: n = RTT_C / RTT_D = 6ms / 24µs = 250.
	if d.n != 250 {
		t.Fatalf("n = %d, want 250", d.n)
	}
}

func TestDQMRequiresRTTs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without RTTs")
		}
	}()
	NewDQM(DQMParams{MTU: 1000, MaxRate: sim.Gbps}, sim.Gbps)
}

func TestDQMPredictedEnqueueSeededAtInitRate(t *testing.T) {
	d := NewDQM(dqmParams(), 25*sim.Gbps)
	// Eq. 2 over a history seeded with the initial rate.
	if got := d.predictedEnqueueRate(); got != 25*sim.Gbps {
		t.Fatalf("R_pre_eq = %v, want 25Gbps", got)
	}
}

func TestDQMReducesRateWhenDelayAboveTarget(t *testing.T) {
	d := NewDQM(dqmParams(), 25*sim.Gbps)
	// 12.5 Gbps dequeue, 15 MB backlog → delay ≈ 6.7 ms (paper Fig. 9
	// startup regime). Eq. 5 must cut well below R_credit.
	r := d.OnCreditRound(12500*sim.Mbps, 15<<20)
	if r >= 12500*sim.Mbps {
		t.Fatalf("R_DQM = %v, want < R_credit", r)
	}
	if r < cc.MinRate {
		t.Fatalf("R_DQM = %v below floor", r)
	}
}

func TestDQMKeepsRateWhenQueueEmpty(t *testing.T) {
	p := dqmParams()
	d := NewDQM(p, 12500*sim.Mbps)
	// Warm the history at the dequeue rate so R_pre_eq == R_credit.
	var r sim.Rate
	for i := 0; i < d.n+5; i++ {
		r = d.OnCreditRound(12500*sim.Mbps, 0)
	}
	// Empty queue, delay 0 < D_t → Eq. 5 allows a slight increase.
	if r < 12500*sim.Mbps {
		t.Fatalf("R_DQM = %v, want >= R_credit with empty queue", r)
	}
	if r > p.MaxRate {
		t.Fatalf("R_DQM = %v above ceiling", r)
	}
}

func TestDQMEquilibriumNearTargetDelay(t *testing.T) {
	// Closed-loop toy model: sender rate = Smoothed(), PFQ drains at
	// R_credit; queue must settle near R_credit × D_t.
	p := dqmParams()
	d := NewDQM(p, 25*sim.Gbps)
	rcredit := 12500 * sim.Mbps
	queue := 20 << 20 // start far above target
	dt := p.RTTd.Seconds()
	sendRate := 25 * sim.Gbps
	// Senders react one RTT_C late: keep a delay line of advertised rates.
	lag := make([]sim.Rate, d.n)
	for i := range lag {
		lag[i] = sendRate
	}
	for round := 0; round < 40000; round++ {
		arrive := lag[round%len(lag)]
		queue += int(float64(arrive) / 8 * dt)
		drain := int(float64(rcredit) / 8 * dt)
		if drain > queue {
			drain = queue
		}
		queue -= drain
		d.OnCreditRound(rcredit, int64(queue))
		for k := 0; k < 12; k++ { // ≈ packets per RTT_D at 12.5G
			d.OnPacketOut()
		}
		lag[round%len(lag)] = d.Smoothed()
	}
	target := float64(rcredit) / 8 * TargetDelay.Seconds() // bytes at D_t
	if float64(queue) > 3*target || float64(queue) < target/8 {
		t.Fatalf("steady queue %d bytes, want near R·D_t = %.0f", queue, target)
	}
}

func TestDQMTokenBucketBalancedAtParity(t *testing.T) {
	d := NewDQM(dqmParams(), 12500*sim.Mbps)
	// Warm history so rdqm == rcredit at zero queue... then check dw stays
	// bounded near zero at parity (ratio 1, α=0.5 → alternating pattern).
	for i := 0; i < 10; i++ {
		d.OnCreditRound(12500*sim.Mbps, 0)
	}
	for i := 0; i < 1000; i++ {
		d.OnPacketOut()
	}
	if math.Abs(d.dw) > 100 {
		t.Fatalf("dw = %v drifted at parity", d.dw)
	}
}

func TestDQMSmoothedApproachesTarget(t *testing.T) {
	d := NewDQM(dqmParams(), 25*sim.Gbps)
	// Large queue → raw target well below R_credit.
	raw := d.OnCreditRound(12500*sim.Mbps, 40<<20)
	for i := 0; i < 100000; i++ {
		d.OnPacketOut()
	}
	got := d.Smoothed()
	// After many packets the smoothed rate must have walked down to raw.
	if diff := math.Abs(float64(got-raw)) / float64(raw); diff > 0.05 {
		t.Fatalf("Smoothed = %v, raw R_DQM = %v", got, raw)
	}
}

func TestDQMSmoothedNeverOvershootsTarget(t *testing.T) {
	f := func(qMB uint8, rG uint8) bool {
		d := NewDQM(dqmParams(), 25*sim.Gbps)
		rcredit := sim.Rate(int64(rG%25)+1) * sim.Gbps
		raw := d.OnCreditRound(rcredit, int64(qMB)<<20)
		for i := 0; i < 5000; i++ {
			d.OnPacketOut()
		}
		sm := d.Smoothed()
		lo, hi := raw, rcredit
		if lo > hi {
			lo, hi = hi, lo
		}
		return sm >= lo-sim.Rate(1) && sm <= hi+25*sim.Gbps/100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDQMHistoryRing(t *testing.T) {
	p := dqmParams()
	p.RTTc = 100 * sim.Microsecond
	p.RTTd = 25 * sim.Microsecond // n = 4
	d := NewDQM(p, 8*sim.Gbps)
	if d.n != 4 {
		t.Fatalf("n = %d", d.n)
	}
	// Push 4 rounds at 4 Gbps with empty queue: prediction converges to
	// the advertised rates, not the init rate.
	for i := 0; i < 8; i++ {
		d.OnCreditRound(4*sim.Gbps, 0)
	}
	pre := d.predictedEnqueueRate()
	if pre > 5*sim.Gbps || pre < 3*sim.Gbps {
		t.Fatalf("R_pre_eq = %v, want ≈4Gbps after ring wraps", pre)
	}
}

func TestDQMRoundsCounter(t *testing.T) {
	d := NewDQM(dqmParams(), sim.Gbps)
	for i := 0; i < 7; i++ {
		d.OnCreditRound(sim.Gbps, 0)
	}
	if d.Rounds != 7 {
		t.Fatalf("Rounds = %d", d.Rounds)
	}
}
