package main

import (
	"fmt"
	"math/rand"

	"mlcc/internal/audit"
	"mlcc/internal/fault"
	"mlcc/internal/guard"
	"mlcc/internal/metrics"
	"mlcc/internal/sim"
	"mlcc/internal/topo"
	"mlcc/internal/workload"
)

// planes selects which opt-in planes a lap attaches to its networks.
type planes struct {
	metrics, flight, audit, guard, fault bool
}

var allPlanes = planes{metrics: true, flight: true, audit: true, guard: true, fault: true}

// apply attaches the selected planes to p. Every lap gets fresh plane
// objects: a ledger or registry carried across laps would grow with them.
func (pl planes) apply(p *topo.Params) {
	if pl.metrics || pl.flight {
		opts := metrics.Options{Metrics: pl.metrics}
		if pl.flight {
			opts.FlightRecorderSize = 64 << 10
		}
		p.Telemetry = metrics.New(opts)
	}
	if pl.audit {
		p.Audit = audit.New()
	}
	if pl.guard {
		p.Guard = &guard.Config{}
	}
	if pl.fault {
		// The TestDigestFaultPlanInvariant "vacuous" shape: hooks installed
		// on the long-haul link and one scripted event far beyond any lap's
		// horizon, so the plan costs what an armed plan costs but perturbs
		// nothing.
		p.Fault = &fault.Plan{
			Seed:   99,
			Events: []fault.Event{{At: 10 * sim.Second, Link: "longhaul", Action: fault.LinkDown}},
			Loss:   []fault.LossRule{{Link: "longhaul", Prob: 0}},
		}
	}
}

// workloadDef is one benchmark workload: a fixed simulated input (a pure
// function of seed and scale) plus how a lap simulates it.
type workloadDef struct {
	name string
	why  string

	dumbbell bool
	params   func() topo.Params // shape only; algorithm, planes, shards and seed are set per lap
	algs     []string           // one sub-run per algorithm, sequentially, per lap
	shards   int
	planes   planes

	// flows generates the sub-run's input on the built network. scale
	// divides byte and flow budgets (1 in the benchmark, larger in the
	// smoke test).
	flows func(n *topo.Network, seed int64, scale int) []workload.FlowSpec

	end      sim.Time // simulated deadline; every flow must be done and the network drained by then
	segments int      // single-engine segment count over [0, end]
}

const mib = 1 << 20

func workloads() []*workloadDef {
	elephants := &workloadDef{
		name:     "elephants",
		why:      "8 long MLCC flows on the 32-host two-DC fabric, planes off: per-packet link/fabric/dci/core/host cost with a shallow heap and no churn",
		params:   topo.DefaultParams,
		algs:     []string{topo.AlgMLCC},
		shards:   1,
		flows:    elephantFlows,
		end:      15 * sim.Millisecond,
		segments: 300,
	}
	withPlanes := *elephants
	withPlanes.name = "elephants_planes"
	withPlanes.why = "identical input with registry, 64k flight recorder, audit, guard and a vacuous fault plan attached: what every tap costs when live"
	withPlanes.planes = allPlanes

	websearch := &workloadDef{
		name:     "dumbbell_websearch",
		why:      "244 Websearch flows over 64 hosts at 100G on one engine: deep event heap, timer cancel/re-arm and flow-table lookups, so sim and host dominate",
		dumbbell: true,
		params: func() topo.Params {
			p := topo.DefaultParams()
			p.HostsPerLeaf = 32
			p.HostRate = 100 * sim.Gbps
			return p
		},
		algs:   []string{topo.AlgMLCC},
		shards: 1,
		flows: func(n *topo.Network, seed int64, scale int) []workload.FlowSpec {
			return pinnedFlows(n, workload.Websearch(), seed, scale,
				flowClass{count: 240, bytes: 400_000_000},
				flowClass{cross: true, count: 4, bytes: 6_000_000})
		},
		end:      30 * sim.Millisecond,
		segments: 300,
	}
	sharded := *websearch
	sharded.name = "dumbbell_websearch_shards2"
	sharded.why = "the same input on two engines: barrier windows, cross-shard mailboxes and two cores, so a single-engine win that costs the sharded path shows"
	sharded.shards = 2

	hadoop := &workloadDef{
		name: "fabric_hadoop_algs",
		why:  "224 mostly tiny Hadoop flows on the 256-host fabric simulated once under each of the five algorithms: flow churn, ECN/CNP/PFC and five-hop INT on every ACK",
		params: func() topo.Params {
			p := topo.DefaultParams()
			p.HostsPerLeaf = 32
			return p
		},
		algs:   []string{topo.AlgDCQCN, topo.AlgTimely, topo.AlgHPCC, topo.AlgPowerTCP, topo.AlgMLCC},
		shards: 1,
		flows: func(n *topo.Network, seed int64, scale int) []workload.FlowSpec {
			// A quarter of random intra-DC pairs share a rack (31 of 127).
			return pinnedFlows(n, workload.Hadoop(), seed, scale,
				flowClass{links: 2, count: 48, bytes: 10_000_000},
				flowClass{links: 4, count: 152, bytes: 32_000_000},
				flowClass{cross: true, count: 24, bytes: 5_000_000})
		},
		end:      40 * sim.Millisecond,
		segments: 100,
	}
	return []*workloadDef{elephants, &withPlanes, websearch, &sharded, hadoop}
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// elephantFlows places 4 cross-DC and 4 intra-DC 16 MiB flows at t=0. The
// seed picks the racks and the host pairing; the shape (every sender of one
// rack to distinct receivers of another) is the same at every seed, so laps
// at different seeds simulate the same amount of work.
func elephantFlows(n *topo.Network, seed int64, scale int) []workload.FlowSpec {
	rng := rand.New(rand.NewSource(seed))
	size := int64(16 * mib / scale)
	perLeaf, leaves := n.P.HostsPerLeaf, n.P.LeavesPerDC
	var out []workload.FlowSpec
	rackPair := func(srcRack, dstRack int, cross bool) {
		perm := rng.Perm(perLeaf)
		for j := 0; j < 4; j++ {
			out = append(out, workload.FlowSpec{
				Src: n.RackHost(srcRack, j), Dst: n.RackHost(dstRack, perm[j]), Size: size, Cross: cross,
			})
		}
	}
	rackPair(1+rng.Intn(leaves), 1+leaves+rng.Intn(leaves), true)
	src := rng.Intn(leaves)
	dst := (src + 1 + rng.Intn(leaves-1)) % leaves
	rackPair(1+leaves+src, 1+leaves+dst, false)
	return out
}

// flowClass is one stratum of a pinned input: the flows a lap's cost treats
// alike — same load knob, same number of links end to end — with the count
// and byte total the input carries of them at every seed.
type flowClass struct {
	cross bool
	links int // links between source and destination host; 0 = any
	count int
	bytes int64
}

// pinnedFlows draws open-loop Poisson arrivals from workload.Generate and
// pins what a lap's cost depends on: per class, the first count arrivals are
// kept and their sizes rescaled so the class carries exactly its byte
// budget. The seed still decides who talks to whom, when, and the shape of
// the size mix — but every seed simulates the same flow count and byte volume
// over the same number of links, so host time is comparable across seeds.
// Unpinned, the heavy-tailed draw moves total bytes by ±20% at these flow
// counts; pinned by load class alone, the few large flows landing in or out
// of their sender's rack still moved the event count by ±10%.
func pinnedFlows(n *topo.Network, cdf *workload.CDF, seed int64, scale int, classes ...flowClass) []workload.FlowSpec {
	var lists [][]workload.FlowSpec
	for _, c := range classes {
		count := max(c.count/scale, 2)
		spec := workload.Spec{
			CDF:       cdf,
			HostRate:  n.P.HostRate,
			IntraRate: n.PerHostBisection(),
			CrossRate: n.P.FabricRate,
			Hosts:     n.NumHosts(),
			Seed:      seed,
			IntraLoad: 0.5,
		}
		if c.cross {
			spec.IntraLoad, spec.CrossLoad = 0, 0.2
			spec.Seed = ^seed // the two load classes draw from unrelated streams
		}
		var kept []workload.FlowSpec
		for spec.Duration = sim.Millisecond; len(kept) < count; spec.Duration *= 2 {
			fl, err := workload.Generate(spec)
			if err != nil {
				panic(fmt.Sprintf("bench: workload spec rejected: %v", err)) // fixed valid spec
			}
			kept = kept[:0]
			for _, f := range fl {
				if c.links == 0 || linksBetween(n, f.Src, f.Dst) == c.links {
					kept = append(kept, f)
				}
			}
		}
		lists = append(lists, pinBytes(kept[:count], c.bytes/int64(scale)))
	}
	return workload.MergeFlows(lists...)
}

// linksBetween counts the cables a packet crosses from host src to host dst.
func linksBetween(n *topo.Network, src, dst int) int {
	switch {
	case n.CrossDC(src, dst) && n.Dumbbell:
		return 5 // host, ToR, DCI, DCI, ToR, host
	case n.CrossDC(src, dst):
		return 7 // host, leaf, spine, DCI, DCI, spine, leaf, host
	case n.Rack(src) == n.Rack(dst):
		return 2
	default:
		return 4 // host, leaf, spine, leaf, host
	}
}

// pinBytes rescales sizes proportionally so they sum to exactly total; the
// rounding residue lands on the largest flow.
func pinBytes(fl []workload.FlowSpec, total int64) []workload.FlowSpec {
	var sum int64
	for _, f := range fl {
		sum += f.Size
	}
	var got int64
	big := 0
	for i := range fl {
		s := max(int64(float64(fl[i].Size)*float64(total)/float64(sum)), 1)
		fl[i].Size = s
		got += s
		if s > fl[big].Size {
			big = i
		}
	}
	fl[big].Size += total - got
	if fl[big].Size < 1 {
		panic("bench: byte budget smaller than the flow count")
	}
	return fl
}
