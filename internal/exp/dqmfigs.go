package exp

import (
	"fmt"

	"mlcc/internal/sim"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
)

func init() {
	register(Experiment{ID: "fig9", Title: "DQM θ sweep: receiver-side DCI queue under simultaneous burst", Run: runFig9})
	register(Experiment{ID: "fig10", Title: "DQM: receiver-side DCI queue under sequential burst", Run: runFig10})
}

// dqmScenario drives four cross-DC flows into two Rack-5 receivers (two
// flows per 25G server link ⇒ 12.5 Gbps fair share, the paper's Fig. 9b
// setting). Four 25G senders fit the 100G long-haul exactly, so the burst
// accumulates at the receiver-side DCI PFQs, which DQM must then regulate.
func dqmScenario(cfg Config, theta sim.Time, starts func(i int) sim.Time, size int64, window sim.Time) (*stats.Series, *scenario) {
	p := topo.DefaultParams().WithAlgorithm(topo.AlgMLCC)
	p.Seed = cfg.Seed
	p.Shards = cfg.Shards
	p.DQM.Theta = theta
	sc := newScenario(topo.TwoDC, p, window, 200*sim.Microsecond)
	n := sc.n
	for i := 0; i < 4; i++ {
		src := n.RackHost(1, i)
		dst := n.RackHost(5, i/2)
		sc.addGroupFlow("flows", src, dst, size, starts(i))
	}
	dci1 := n.DCIs[1]
	q := sc.trackQueue(fmt.Sprintf("dciQ[theta=%v]", theta), func() float64 {
		return float64(dci1.BufferUsed())
	})
	sc.run(window)
	return q, sc
}

// runFig9 sweeps θ ∈ {6, 18, 30 ms} with D_t = 1 ms on a simultaneous burst
// and reports peak and steady queue; 9(b)'s per-flow check is the note: at
// 12.5 Gbps fair rate the managed per-flow queue should approach
// R·D_t ≈ 1.5 MB.
func runFig9(cfg Config) (*Report, error) {
	rep := &Report{ID: "fig9", Title: "DQM θ sweep, simultaneous burst"}
	window := 80 * sim.Millisecond
	if cfg.Scale == Quick {
		window = 50 * sim.Millisecond
	}
	thetas := []sim.Time{6 * sim.Millisecond, 18 * sim.Millisecond, 30 * sim.Millisecond}
	tbl := NewTable("Receiver-side DCI queue vs θ (D_t = 1 ms)", "MB", "peak", "steady", "perFlowSteady")

	type out struct {
		q   *stats.Series
		per float64
		sc  *scenario
	}
	results, err := sweep(cfg.Workers, len(thetas), func(i int) (*out, error) {
		q, sc := dqmScenario(cfg, thetas[i], func(int) sim.Time { return sim.Millisecond }, 1<<30, window)
		// Per-flow steady backlog: average PFQ backlog per live flow.
		var per float64
		live := 0
		for _, f := range sc.groups["flows"] {
			if b := sc.n.DCIs[1].PFQBacklog(f.Info.ID); b > 0 {
				per += float64(b)
				live++
			}
		}
		if live > 0 {
			per /= float64(live)
		}
		return &out{q: q, per: per / (1 << 20), sc: sc}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, o := range results {
		tbl.AddRow(thetas[i].String(),
			o.q.Max()/(1<<20),
			o.q.AvgAfter(window-20*sim.Millisecond)/(1<<20),
			o.per)
		rep.addRun(o.sc, o.q)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddNote("expected shape: queue falls from its startup peak to a few MB; θ=6ms is aggressive/jittery, θ=30ms slow, θ=18ms in between")
	rep.AddNote("per-flow steady backlog should approach R·D_t = 12.5Gbps × 1ms ≈ 1.5 MB (paper Fig. 9b)")
	return rep, nil
}

// runFig10 staggers finite flows (sequential burst) at θ=18 ms: the queue is
// regulated while flows are active and drains as they complete.
func runFig10(cfg Config) (*Report, error) {
	rep := &Report{ID: "fig10", Title: "DQM sequential burst, θ = 18 ms"}
	window, size := 100*sim.Millisecond, int64(40<<20)
	if cfg.Scale == Quick {
		window, size = 60*sim.Millisecond, 20<<20
	}
	q, sc := dqmScenario(cfg, 18*sim.Millisecond,
		func(i int) sim.Time { return sim.Millisecond + sim.Time(i)*3*sim.Millisecond },
		size, window)

	tbl := NewTable("Receiver-side DCI queue, sequential burst", "MB", "peak", "mid", "final")
	tbl.AddRow("theta=18ms",
		q.Max()/(1<<20),
		q.AvgAfter(window/2)/(1<<20),
		q.Last()/(1<<20))
	rep.Tables = append(rep.Tables, tbl)
	rep.addRun(sc, q)

	done := 0
	for _, f := range sc.groups["flows"] {
		if f.Done {
			done++
		}
	}
	rep.AddNote("%d of 4 finite flows completed; queue must drain toward zero as they finish", done)
	return rep, nil
}
