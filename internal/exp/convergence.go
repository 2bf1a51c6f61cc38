package exp

import (
	"fmt"

	"mlcc/internal/metrics"
	"mlcc/internal/sim"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
)

func init() {
	register(Experiment{ID: "fig7", Title: "MLCC convergence, sender-side bottleneck (simultaneous & sequential starts)", Run: runFig7})
	register(Experiment{ID: "fig8", Title: "MLCC convergence, receiver-side bottleneck with DQM re-convergence", Run: runFig8})
}

// snapshot captures each flow's received bytes so steady-state rates can be
// measured over a trailing window.
func (s *scenario) snapshot(group string) []int64 {
	flows := s.groups[group]
	out := make([]int64, len(flows))
	for i, f := range flows {
		out[i] = f.RxBytes
	}
	return out
}

// ratesSince returns per-flow receive rates (bits/s) since a snapshot taken
// at time from.
func (s *scenario) ratesSince(group string, snap []int64, from sim.Time) []float64 {
	flows := s.groups[group]
	elapsed := (s.n.Eng.Now() - from).Seconds()
	rates := make([]float64, len(flows))
	if elapsed <= 0 {
		return rates
	}
	for i, f := range flows {
		rates[i] = float64(f.RxBytes-snap[i]) * 8 / elapsed
	}
	return rates
}

// convergenceRun drives nFlows long-lived MLCC cross-DC flows with the given
// start times and reports steady-state per-flow rates, the Jain index, and
// per-flow throughput series.
type convergenceResult struct {
	rates []float64 // bits/s, steady state
	jain  float64
	dciQ  *stats.Series
	flows []*stats.Series
	man   *metrics.Manifest
}

func runConvergence(cfg Config, p topo.Params, pairs [][2]int, starts []sim.Time, window, steadyFrom sim.Time) *convergenceResult {
	sc := newScenario(topo.TwoDC, p, window, 200*sim.Microsecond)
	for i, pr := range pairs {
		f := sc.addGroupFlow("flows", pr[0], pr[1], 1<<30, starts[i])
		sc.trackRate(fmt.Sprintf("flow%d", i), func() int64 { return f.RxBytes })
	}
	dci1 := sc.n.DCIs[1]
	dciQ := sc.trackQueue("dciQ", func() float64 {
		return float64(dci1.BufferUsed())
	})

	var snap []int64
	sc.n.Eng.At(steadyFrom, func() { snap = sc.snapshot("flows") })
	sc.run(window)

	res := &convergenceResult{dciQ: dciQ, man: sc.manifest()}
	res.rates = sc.ratesSince("flows", snap, steadyFrom)
	res.jain = stats.JainIndex(res.rates)
	for i := range pairs {
		res.flows = append(res.flows, sc.series[fmt.Sprintf("flow%d", i)])
	}
	return res
}

// runFig7 places the bottleneck in the sender-side datacenter: eight
// senders in Rack 1 share that rack's single 100G uplink toward eight
// receivers in Rack 5. Fair share is 12.5 Gbps per flow.
func runFig7(cfg Config) (*Report, error) {
	rep := &Report{ID: "fig7", Title: "MLCC convergence, sender-side bottleneck"}
	p := topo.DefaultParams().WithAlgorithm(topo.AlgMLCC)
	p.Seed = cfg.Seed
	p.SpinesPerDC = 1
	p.HostsPerLeaf = 8

	window, stagger, steady := 50*sim.Millisecond, 2*sim.Millisecond, 35*sim.Millisecond
	if cfg.Scale == Quick {
		window, stagger, steady = 28*sim.Millisecond, 1500*sim.Microsecond, 18*sim.Millisecond
	}
	const nf = 8
	tbl := NewTable("Steady-state per-flow rate", "Gbps", "min", "max", "mean", "jain")

	build := func() ([][2]int, *topo.Network) {
		n := topo.TwoDC(p)
		var pairs [][2]int
		for i := 0; i < nf; i++ {
			pairs = append(pairs, [2]int{n.RackHost(1, i), n.RackHost(5, i)})
		}
		return pairs, n
	}

	for _, mode := range []string{"simultaneous", "sequential"} {
		pairs, _ := build()
		starts := make([]sim.Time, nf)
		for i := range starts {
			starts[i] = sim.Millisecond
			if mode == "sequential" {
				starts[i] = sim.Millisecond + sim.Time(i)*stagger
			}
		}
		res := runConvergence(cfg, p, pairs, starts, window, steady)
		lo, hi, mean := summarize(res.rates)
		tbl.AddRow(mode, lo/1e9, hi/1e9, mean/1e9, res.jain)
		rep.Series = append(rep.Series, res.flows...)
		rep.Manifests = append(rep.Manifests, res.man)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddNote("fair share is 12.5 Gbps (8×25G offered into one 100G uplink); jain≈1 means converged")
	return rep, nil
}

// runFig8 places the bottleneck in the receiver-side datacenter: four
// cross-DC senders target one 25G receiver. Fair share is 6.25 Gbps; the
// receiver-side DCI queue is managed by DQM after convergence.
func runFig8(cfg Config) (*Report, error) {
	rep := &Report{ID: "fig8", Title: "MLCC convergence, receiver-side bottleneck"}
	p := topo.DefaultParams().WithAlgorithm(topo.AlgMLCC)
	p.Seed = cfg.Seed

	window, stagger, steady := 60*sim.Millisecond, 3*sim.Millisecond, 40*sim.Millisecond
	if cfg.Scale == Quick {
		window, stagger, steady = 36*sim.Millisecond, 2*sim.Millisecond, 24*sim.Millisecond
	}
	const nf = 4
	tbl := NewTable("Steady-state per-flow rate", "Gbps", "min", "max", "mean", "jain", "dciQMB")

	for _, mode := range []string{"simultaneous", "sequential"} {
		n := topo.TwoDC(p)
		dst := n.RackHost(5, 0)
		var pairs [][2]int
		for i := 0; i < nf; i++ {
			pairs = append(pairs, [2]int{n.RackHost(1, i), dst})
		}
		starts := make([]sim.Time, nf)
		for i := range starts {
			starts[i] = sim.Millisecond
			if mode == "sequential" {
				starts[i] = sim.Millisecond + sim.Time(i)*stagger
			}
		}
		res := runConvergence(cfg, p, pairs, starts, window, steady)
		lo, hi, mean := summarize(res.rates)
		tbl.AddRow(mode, lo/1e9, hi/1e9, mean/1e9, res.jain, res.dciQ.AvgAfter(steady)/(1<<20))
		rep.Series = append(rep.Series, res.flows...)
		rep.Series = append(rep.Series, res.dciQ)
		rep.Manifests = append(rep.Manifests, res.man)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddNote("fair share is 6.25 Gbps (4 flows into one 25G server link); DQM holds the DCI queue near R·D_t after convergence")
	return rep, nil
}

// summarize returns (min, max, mean) of a rate vector.
func summarize(rates []float64) (lo, hi, mean float64) {
	if len(rates) == 0 {
		return 0, 0, 0
	}
	lo = rates[0]
	for _, r := range rates {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
		mean += r
	}
	mean /= float64(len(rates))
	return lo, hi, mean
}
