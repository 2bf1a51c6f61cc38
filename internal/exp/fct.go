package exp

import (
	"fmt"
	"sync"

	"mlcc/internal/metrics"
	"mlcc/internal/sim"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
	"mlcc/internal/workload"
)

// fctKey identifies one FCT simulation for memoization: the avg-FCT and
// tail-FCT figures (11↔13, 12↔14) share the same underlying runs. The shard
// count is part of the key even though digests are shard-invariant — a
// cached result must say how it was produced so manifests stay honest.
type fctKey struct {
	alg      string
	cdf      string
	intra    float64
	cross    float64
	longHaul sim.Time
	dumbbell bool
	scale    Scale
	seed     int64
	shards   int
}

// fctResult is the outcome of one workload simulation.
type fctResult struct {
	Col        *stats.FCTCollector
	Flows      int
	Unfinished int
	Manifest   *metrics.Manifest

	// Warning is the shard-fallback warning for this run ("" when none);
	// figures surface it through Report.AddWarning.
	Warning string
}

// clone returns a deep-enough copy for handing to callers: the collector
// and manifest are the two mutable components, and both support Clone.
func (r *fctResult) clone() *fctResult {
	c := *r
	c.Col = r.Col.Clone()
	c.Manifest = r.Manifest.Clone()
	return &c
}

var fctCache sync.Map // fctKey -> *fctResult (canonical; callers get clones)

// scaleTopo returns the base topology parameters for a scale.
func scaleTopo(s Scale) topo.Params {
	p := topo.DefaultParams()
	if s == Full {
		p.HostsPerLeaf = 32 // 32×25G vs 2×100G uplinks = 4:1, per §4.1
	} else {
		p.HostsPerLeaf = 8
	}
	return p
}

// windows returns the (arrival window, drain deadline) for a scale.
func windows(s Scale) (sim.Time, sim.Time) {
	if s == Full {
		return 20 * sim.Millisecond, 250 * sim.Millisecond
	}
	return 5 * sim.Millisecond, 120 * sim.Millisecond
}

// runFCT runs (or recalls) one workload simulation. Both hits and misses
// return a clone of the cached canonical result: two figures sharing a run
// (11↔13, 12↔14) must never alias one collector or manifest, or a consumer
// that sorts samples in place or stamps the manifest corrupts its sibling.
func runFCT(k fctKey) (*fctResult, error) {
	if v, ok := fctCache.Load(k); ok {
		return v.(*fctResult).clone(), nil
	}
	cdf, err := workload.ByName(k.cdf)
	if err != nil {
		return nil, err
	}
	window, deadline := windows(k.scale)

	p := scaleTopo(k.scale)
	if k.longHaul != 0 {
		p.LongHaulDelay = k.longHaul
	}
	p.Seed = k.seed
	p.Shards = k.shards
	pa := p.WithAlgorithm(k.alg)
	// Passive telemetry: registry only, no sampling, so the run's event
	// sequence — and thus its determinism digest — is unchanged.
	tel := metrics.New(metrics.Options{Metrics: true})
	pa.Telemetry = tel
	build := topo.TwoDC
	if k.dumbbell {
		pa.HostsPerLeaf = 2
		pa.HostRate = 100 * sim.Gbps
		build = topo.Dumbbell
	}
	n := build(pa)

	flows, err := workload.Generate(workload.Spec{
		CDF:       cdf,
		IntraLoad: k.intra,
		CrossLoad: k.cross,
		HostRate:  n.P.HostRate,
		IntraRate: n.PerHostBisection(),
		CrossRate: n.P.FabricRate,
		Hosts:     n.NumHosts(),
		Duration:  window,
		Seed:      k.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("exp: workload %v: %w", k, err)
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("exp: workload %v generated no flows", k)
	}

	for _, fs := range flows {
		n.AddFlow(fs.Src, fs.Dst, fs.Size, fs.Start)
	}
	n.Run(deadline)

	// Completed flows only: an aborted transfer has no FCT to report.
	sum := n.Summary()
	col := stats.NewFCTCollector()
	for _, s := range sum.Samples {
		if !s.Aborted {
			col.Add(s)
		}
	}

	man := metrics.NewManifest("mlccfig")
	man.Algorithm = k.alg
	man.Workload = k.cdf
	man.Seed = k.seed
	man.Flows = len(flows)
	man.Config = map[string]any{
		"intra_load":  k.intra,
		"cross_load":  k.cross,
		"longhaul_ms": p.LongHaulDelay.Millis(),
		"dumbbell":    k.dumbbell,
		"full_scale":  k.scale == Full,
		"shards":      n.ShardCount(),
	}
	man.FillSim(n.Now(), n.Fired())
	man.AddCounters(tel.Registry())

	res := &fctResult{
		Col: col, Flows: len(flows), Unfinished: sum.Flows - sum.Done,
		Manifest: man, Warning: shardWarning(pa),
	}
	fctCache.Store(k, res)
	return res.clone(), nil
}

// ClearCache drops memoized simulations (tests use it to force reruns).
func ClearCache() {
	fctCache.Range(func(k, _ any) bool {
		fctCache.Delete(k)
		return true
	})
}

// fctForAlgs runs the workload for every algorithm concurrently.
func fctForAlgs(cfg Config, algs []string, cdf string, intra, cross float64, longHaul sim.Time, dumbbell bool) (map[string]*fctResult, error) {
	res, err := sweep(cfg.Workers, len(algs), func(i int) (*fctResult, error) {
		return runFCT(fctKey{
			alg: algs[i], cdf: cdf, intra: intra, cross: cross,
			longHaul: longHaul, dumbbell: dumbbell,
			scale: cfg.Scale, seed: cfg.Seed, shards: cfg.Shards,
		})
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*fctResult, len(algs))
	for i, alg := range algs {
		out[alg] = res[i]
	}
	return out, nil
}
