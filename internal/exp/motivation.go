package exp

import (
	"mlcc/internal/host"
	"mlcc/internal/metrics"
	"mlcc/internal/sim"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
)

// motivAlgs are the algorithms the paper's motivation experiments examine.
var motivAlgs = []string{topo.AlgDCQCN, topo.AlgPowerTCP}

// scenario is a hand-built experiment on long-lived flows: explicit flow
// placement plus periodic sampling of throughput and queue state. Sampling
// runs on the unified telemetry layer (internal/metrics): every tracked
// series registers as an exp.* instrument and is sampled straight into the
// *stats.Series the figure code consumes after the run, so each scenario
// also yields a run manifest with the full counter snapshot.
type scenario struct {
	n      *topo.Network
	tel    *metrics.Telemetry
	window sim.Time
	groups map[string][]*host.Flow
	series map[string]*stats.Series

	// warn is the shard-fallback warning for this build ("" when none);
	// figures surface it through Report.AddWarning.
	warn string
}

// newScenario builds a network with build (topo.TwoDC or topo.Dumbbell) and
// telemetry sampling every interval (0 = registry only).
func newScenario(build func(topo.Params) *topo.Network, p topo.Params, window sim.Time, interval sim.Time) *scenario {
	tel := metrics.New(metrics.Options{Metrics: true, SampleInterval: interval})
	p.Telemetry = tel
	n := build(p)
	return &scenario{
		n:      n,
		tel:    tel,
		window: window,
		groups: map[string][]*host.Flow{},
		series: map[string]*stats.Series{},
		warn:   shardWarning(p),
	}
}

// addGroupFlow adds a long-lived flow to a named group.
func (s *scenario) addGroupFlow(group string, src, dst int, size int64, start sim.Time) *host.Flow {
	f := s.n.AddFlow(src, dst, size, start)
	s.groups[group] = append(s.groups[group], f)
	return f
}

// trackRate samples fn's monotone byte count as a rate (bits/s) into a named
// series, registered in the telemetry registry as exp.<name>.
func (s *scenario) trackRate(name string, fn func() int64) *stats.Series {
	ser := &stats.Series{Name: name, Kind: stats.FlowRate}
	s.series[name] = ser
	s.tel.SampleCounterRate("exp."+name, ser, 8, fn)
	return ser
}

// trackGroupRate samples the aggregate receive rate of a flow group (bits/s).
func (s *scenario) trackGroupRate(group string) *stats.Series {
	flows := s.groups[group]
	return s.trackRate("rate:"+group, func() int64 {
		var sum int64
		for _, f := range flows {
			sum += f.RxBytes
		}
		return sum
	})
}

// trackQueue samples a queue occupancy in bytes, registered as exp.<name>.
func (s *scenario) trackQueue(name string, fn func() float64) *stats.Series {
	ser := &stats.Series{Name: name, Kind: stats.QueueLen}
	s.series[name] = ser
	s.tel.SampleGauge("exp."+name, ser, fn)
	return ser
}

// run starts sampling, executes the scenario to its window end and fills the
// run manifest.
func (s *scenario) run(window sim.Time) {
	s.tel.StartSampling(s.window)
	s.n.Run(window)
	m := metrics.NewManifest("mlccfig")
	m.Algorithm = s.n.Alg.Name
	m.Seed = s.n.P.Seed
	m.FillSim(s.n.Now(), s.n.Fired())
	m.AddCounters(s.tel.Registry())
	s.tel.Manifest = m
}

// addRun appends a finished scenario's series (nil entries skipped),
// manifest and shard-fallback warning to the report.
func (r *Report) addRun(s *scenario, series ...*stats.Series) {
	for _, ser := range series {
		if ser != nil {
			r.Series = append(r.Series, ser)
		}
	}
	r.Manifests = append(r.Manifests, s.manifest())
	r.AddWarning("%s", s.warn)
}

// manifest returns the run manifest (filled by run).
func (s *scenario) manifest() *metrics.Manifest { return s.tel.Manifest }

func init() {
	register(Experiment{ID: "fig2", Title: "Motivation: cross-DC burst overwhelms receiver-side DC and triggers PFC", Run: runFig2})
	register(Experiment{ID: "fig3", Title: "Motivation: unfair bandwidth between intra- and cross-DC flows (sender-side congestion)", Run: runFig3})
	register(Experiment{ID: "fig4", Title: "Motivation: cross-DC flows queue heavily at the receiver-side DCI switch", Run: runFig4})
}

// runFig2 reproduces Experiment 1: at 1 ms four Rack5→Rack6 intra flows, at
// 2 ms four Rack1→Rack6 cross flows; the receiver-side leaf's shallow buffer
// fills and PFC fires, throttling the intra flows.
func runFig2(cfg Config) (*Report, error) {
	rep := &Report{ID: "fig2", Title: "Motivation: PFC triggered by cross-DC bursts (receiver-side congestion)"}
	tbl := NewTable("Receiver-side congestion", "", "intraGbps", "crossGbps", "peakLeafQMB", "pfcPauses")
	window, steady := 30*sim.Millisecond, 20*sim.Millisecond
	if cfg.Scale == Quick {
		window, steady = 20*sim.Millisecond, 12*sim.Millisecond
	}

	type out struct {
		intraG, crossG, qMB   float64
		pfc                   int64
		leafQ, intraS, crossS *stats.Series
		sc                    *scenario
	}
	results, err := sweep(cfg.Workers, len(motivAlgs), func(i int) (*out, error) {
		alg := motivAlgs[i]
		p := topo.DefaultParams().WithAlgorithm(alg)
		p.Seed = cfg.Seed
		p.Shards = cfg.Shards
		sc := newScenario(topo.TwoDC, p, window, 100*sim.Microsecond)
		// Rack 5 → Rack 6 (intra DC1), one flow per server pair.
		for i := 0; i < 4; i++ {
			sc.addGroupFlow("intra", sc.n.RackHost(5, i), sc.n.RackHost(6, i), 1<<30, sim.Millisecond)
		}
		// Rack 1 → Rack 6 (cross), starting at 2 ms.
		for i := 0; i < 4; i++ {
			sc.addGroupFlow("cross", sc.n.RackHost(1, i), sc.n.RackHost(6, i), 1<<30, 2*sim.Millisecond)
		}
		intraS := sc.trackGroupRate("intra")
		crossS := sc.trackGroupRate("cross")
		leaf6 := sc.n.Leaves[5] // rack 6 = global leaf index 5
		leafQ := sc.trackQueue("leafQ:"+alg, func() float64 { return float64(leaf6.BufferUsed()) })
		sc.run(window)
		return &out{
			intraG: intraS.AvgAfter(steady) / 1e9,
			crossG: crossS.AvgAfter(steady) / 1e9,
			qMB:    leafQ.Max() / (1 << 20),
			pfc:    sc.n.Summary().PFCPauses,
			leafQ:  leafQ, intraS: intraS, crossS: crossS, sc: sc,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, alg := range motivAlgs {
		o := results[i]
		tbl.AddRow(alg, o.intraG, o.crossG, o.qMB, float64(o.pfc))
		rep.addRun(o.sc, o.leafQ, o.intraS, o.crossS)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddNote("expected shape: cross-DC arrival at ~5 ms spikes the leaf queue and PFC pause count jumps above zero")
	return rep, nil
}

// runFig3 reproduces Experiment 2: intra flows start at 1 ms, cross flows
// join sequentially from 2 ms; with end-to-end feedback the short-RTT intra
// flows back off first and lose bandwidth.
func runFig3(cfg Config) (*Report, error) {
	rep := &Report{ID: "fig3", Title: "Motivation: intra vs cross unfairness at sender-side bottleneck"}
	algs := append([]string{}, motivAlgs...)
	algs = append(algs, topo.AlgMLCC) // contrast: the paper's fix
	tbl := NewTable("Sender-side sharing (steady state)", "", "intraGbps", "crossGbps", "intraShare")
	window, steady := 40*sim.Millisecond, 25*sim.Millisecond
	if cfg.Scale == Quick {
		window, steady = 26*sim.Millisecond, 16*sim.Millisecond
	}

	type out struct {
		intraS, crossS *stats.Series
		sc             *scenario
	}
	results, err := sweep(cfg.Workers, len(algs), func(i int) (*out, error) {
		p := topo.DefaultParams().WithAlgorithm(algs[i])
		p.Seed = cfg.Seed
		p.Shards = cfg.Shards
		// One spine and eight hosts per rack: rack 1's single 100G
		// uplink is the shared sender-side bottleneck (8×25G offered).
		p.SpinesPerDC = 1
		p.HostsPerLeaf = 8
		sc := newScenario(topo.TwoDC, p, window, 100*sim.Microsecond)
		for i := 0; i < 4; i++ {
			sc.addGroupFlow("intra", sc.n.RackHost(1, i), sc.n.RackHost(2, i), 1<<30, sim.Millisecond)
		}
		for i := 0; i < 4; i++ {
			start := 2*sim.Millisecond + sim.Time(i)*2*sim.Millisecond
			sc.addGroupFlow("cross", sc.n.RackHost(1, 4+i), sc.n.RackHost(5, i), 1<<30, start)
		}
		o := &out{intraS: sc.trackGroupRate("intra"), crossS: sc.trackGroupRate("cross"), sc: sc}
		sc.run(window)
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	for i, alg := range algs {
		o := results[i]
		intraG, crossG := o.intraS.AvgAfter(steady)/1e9, o.crossS.AvgAfter(steady)/1e9
		share := 0.0
		if intraG+crossG > 0 {
			share = intraG / (intraG + crossG)
		}
		tbl.AddRow(alg, intraG, crossG, share)
		rep.addRun(o.sc, o.intraS, o.crossS)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddNote("expected shape: baselines give intra flows well under the fair 0.5 share; MLCC's near-source loop restores it")
	return rep, nil
}

// runFig4 reproduces Experiment 3: eight cross-DC flows converge on one
// receiver; with deep DCI buffers and lagging ECN the receiver-side DCI
// queue oscillates at tens of MB.
func runFig4(cfg Config) (*Report, error) {
	rep := &Report{ID: "fig4", Title: "Motivation: receiver-side DCI switch queue under cross-DC incast"}
	tbl := NewTable("Receiver-side DCI queue", "", "peakQMB", "avgQMB", "finalQMB", "rxGbps")
	window, steady := 100*sim.Millisecond, 10*sim.Millisecond
	if cfg.Scale == Quick {
		window = 60 * sim.Millisecond
	}

	type out struct {
		q, rate *stats.Series
		sc      *scenario
	}
	algs := motivAlgs
	results, err := sweep(cfg.Workers, len(algs), func(i int) (*out, error) {
		p := topo.DefaultParams().WithAlgorithm(algs[i])
		p.Seed = cfg.Seed
		p.Shards = cfg.Shards
		sc := newScenario(topo.TwoDC, p, window, 100*sim.Microsecond)
		dst := sc.n.RackHost(6, 0)
		for i := 0; i < 4; i++ {
			sc.addGroupFlow("all", sc.n.RackHost(1, i), dst, 1<<30, sim.Millisecond)
			sc.addGroupFlow("all", sc.n.RackHost(4, i), dst, 1<<30, sim.Millisecond)
		}
		rate := sc.trackGroupRate("all")
		dci1 := sc.n.DCIs[1]
		q := sc.trackQueue("dciQ:"+algs[i], func() float64 {
			return float64(dci1.BufferUsed())
		})
		sc.run(window)
		return &out{q: q, rate: rate, sc: sc}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, alg := range algs {
		o := results[i]
		tbl.AddRow(alg, o.q.Max()/(1<<20), o.q.AvgAfter(steady)/(1<<20), o.q.Last()/(1<<20), o.rate.AvgAfter(steady)/1e9)
		rep.addRun(o.sc, o.q, o.rate)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddNote("expected shape: deep-buffer DCI queue builds to tens of MB and oscillates under end-to-end feedback")
	return rep, nil
}
