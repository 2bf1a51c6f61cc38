package exp

import (
	"math"
	"sort"

	"mlcc/internal/audit"
	"mlcc/internal/fault"
	"mlcc/internal/guard"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/topo"
	"mlcc/internal/workload"
)

// DeterminismDigest runs a fixed-seed medium two-DC workload under the named
// algorithm and returns an FNV-1a hash over (fired event count, final clock,
// per-flow completion records in flow-ID order). The digest pins the exact
// event ordering of the simulator: any change to scheduling, packet pooling
// or queue mechanics that alters behaviour — even a one-event reorder —
// changes the hash. Performance rewrites of the hot path must keep it
// bit-identical (see the "Performance model" section of DESIGN.md).
func DeterminismDigest(alg string, seed int64) uint64 {
	return determinismDigest(alg, seed, nil, nil, nil)
}

// DeterminismDigestTel is DeterminismDigest with a telemetry layer attached
// to the build. Telemetry never schedules events or draws randomness — the
// registry and flight recorder are passive, and time-series sampling is
// pump-driven with the engines quiescent — so the digest must be
// byte-identical to the telemetry-off run; the digest tests enforce this for
// every plane.
func DeterminismDigestTel(alg string, seed int64, tel *metrics.Telemetry) uint64 {
	return determinismDigest(alg, seed, tel, nil, nil)
}

// DeterminismDigestPlan is DeterminismDigest with a fault plan applied at
// build time. An empty (or vacuous: zero-probability loss, events beyond the
// horizon) plan must leave the digest byte-identical to the plan-free run —
// the fault layer's PRNG streams are drawn only when a fault can actually
// occur. An active plan must yield the same digest for the same seed.
func DeterminismDigestPlan(alg string, seed int64, plan *fault.Plan) uint64 {
	return determinismDigest(alg, seed, nil, plan, nil)
}

// DeterminismDigestPlanShards is DeterminismDigestPlan built with the given
// shard count, on the dumbbell or the two-DC fabric. Fault plans are fully
// shard-safe: scripted events fire per direction on the engine owning each
// port, at the same absolute time as a single-engine build, and loss rules
// draw from per-direction PRNG streams — so the digest must be
// byte-identical across shard counts even with an active plan.
func DeterminismDigestPlanShards(alg string, seed int64, plan *fault.Plan, shards int, dumbbell bool) uint64 {
	return determinismDigest(alg, seed, nil, plan, &hooks{shards: shards, dumbbell: dumbbell})
}

// DeterminismDigestAudit is DeterminismDigest with the conservation ledger
// attached to the build. The ledger is strictly passive (no events, no
// randomness), so the digest must be byte-identical to the audit-off run;
// it also returns the ledger's end-of-run problem list, which must be empty.
func DeterminismDigestAudit(alg string, seed int64) (uint64, []string) {
	aud := audit.New()
	var probs []string
	d := determinismDigest(alg, seed, nil, nil, &hooks{
		audit: aud,
		after: func(n *topo.Network) { probs = n.AuditProblems() },
	})
	return d, probs
}

// DeterminismDigestGuard is DeterminismDigest built with the guard plane
// armed at the given configuration and shard count. The guard is strictly
// read-only and ticks only at quiescent points, so an armed-but-untriggered
// plane — and even a triggered storm or deadlock detector, which merely
// records and reports — must leave the digest byte-identical to the unguarded
// run (only a stall's requested halt legitimately changes the outcome).
func DeterminismDigestGuard(alg string, seed int64, gc *guard.Config, shards int, dumbbell bool) uint64 {
	return determinismDigest(alg, seed, nil, nil, &hooks{guard: gc, shards: shards, dumbbell: dumbbell})
}

// DeterminismDigestShards is DeterminismDigest built with the given shard
// count, on the dumbbell (§4.6 testbed) or the two-DC fabric. The shard
// property the engine guarantees — and the digest test enforces — is that
// sharded runs are byte-identical to shards=1 for the same configuration:
// the conservative barrier schedule delivers every cross-DC frame at the
// exact time a single engine would have.
func DeterminismDigestShards(alg string, seed int64, shards int, dumbbell bool) uint64 {
	return determinismDigest(alg, seed, nil, nil, &hooks{shards: shards, dumbbell: dumbbell})
}

// DeterminismDigestAuditShards is DeterminismDigestShards with the
// conservation ledger attached: the per-shard partial ledgers must merge to
// closed books, and attaching them must leave the digest untouched.
func DeterminismDigestAuditShards(alg string, seed int64, shards int, dumbbell bool) (uint64, []string) {
	aud := audit.New()
	var probs []string
	d := determinismDigest(alg, seed, nil, nil, &hooks{
		audit:    aud,
		shards:   shards,
		dumbbell: dumbbell,
		after:    func(n *topo.Network) { probs = n.AuditProblems() },
	})
	return d, probs
}

// DeterminismDigestShardsTel is DeterminismDigestShards with every telemetry
// plane active — flight recorder, time-series sampling with SampleAll, and
// per-flow gauges. It returns the base digest, which must equal the plane-off
// run's (telemetry schedules nothing), plus a separate fold of the sampled
// time series, which must be shard-count invariant (every series is read at
// quiescent boundaries where all shards agree on simulation state).
func DeterminismDigestShardsTel(alg string, seed int64, shards int, dumbbell bool) (uint64, uint64) {
	tel := metrics.New(metrics.Options{
		Metrics:            true,
		FlightRecorderSize: 4096,
		SampleInterval:     100 * sim.Microsecond,
		SampleAll:          true,
		PerFlow:            true,
	})
	base := determinismDigest(alg, seed, tel, nil, &hooks{shards: shards, dumbbell: dumbbell})
	return base, foldSeries(tel)
}

// DeterminismDigestPrep is DeterminismDigestShards with a telemetry layer
// attached and a prep hook called on the built network — flows scheduled,
// clock still at zero — before the run. internal/obs uses it to pin that
// attaching the live observability server leaves the digest untouched.
func DeterminismDigestPrep(alg string, seed int64, shards int, dumbbell bool, tel *metrics.Telemetry, prep func(n *topo.Network)) uint64 {
	return determinismDigest(alg, seed, tel, nil, &hooks{shards: shards, dumbbell: dumbbell, prep: prep})
}

// foldSeries hashes every sampled time series, name-sorted, sample by sample.
// sim.events_pending is excluded: staged cross-shard mailbox frames are not
// engine events until their drain is armed, so the pending count legitimately
// differs mid-run between shard layouts while all physical state agrees.
func foldSeries(tel *metrics.Telemetry) uint64 {
	names := tel.Tracer.Names()
	sort.Strings(names)
	d := NewDigest()
	for _, name := range names {
		if name == "sim.events_pending" {
			continue
		}
		ts, vs := tel.Series(name)
		d.Add(uint64(len(ts)))
		for i := range ts {
			d.Add(uint64(ts[i]))
			d.Add(math.Float64bits(vs[i]))
		}
	}
	return d.Sum()
}

// hooks threads optional audit/shard wiring through determinismDigest
// without growing its signature for every caller.
type hooks struct {
	audit    *audit.Ledger
	guard    *guard.Config
	shards   int
	dumbbell bool
	resort   bool // explicitly re-sort the generated flows before registering
	prep     func(n *topo.Network)
	after    func(n *topo.Network)
}

// determinismDigestResorted is DeterminismDigest with an explicit SortFlows
// pass over Generate's output before registration — the sort-idempotence
// probe behind TestDigestSortInvariant.
func determinismDigestResorted(alg string, seed int64) uint64 {
	return determinismDigest(alg, seed, nil, nil, &hooks{resort: true})
}

func determinismDigest(alg string, seed int64, tel *metrics.Telemetry, plan *fault.Plan, hk *hooks) uint64 {
	if hk == nil {
		hk = &hooks{}
	}
	p := scaleTopo(Quick)
	p.Seed = seed
	p.Telemetry = tel
	p.Fault = plan
	p.Audit = hk.audit
	p.Guard = hk.guard
	p.Shards = hk.shards
	build := topo.TwoDC
	if hk.dumbbell {
		build = topo.Dumbbell
	}
	n := build(p.WithAlgorithm(alg))

	flows, err := workload.Generate(workload.Spec{
		CDF:       workload.Websearch(),
		IntraLoad: 0.5,
		CrossLoad: 0.2,
		HostRate:  n.P.HostRate,
		IntraRate: n.PerHostBisection(),
		CrossRate: n.P.FabricRate,
		Hosts:     n.NumHosts(),
		Duration:  2 * sim.Millisecond,
		Seed:      seed,
	})
	if err != nil {
		panic(err) // fixed valid spec; unreachable
	}
	if hk.resort {
		workload.SortFlows(flows)
	}
	for _, fs := range flows {
		n.AddFlow(fs.Src, fs.Dst, fs.Size, fs.Start)
	}
	tel.StartSampling(60 * sim.Millisecond)
	if hk.prep != nil {
		hk.prep(n)
	}
	n.Run(60 * sim.Millisecond)
	if hk.after != nil {
		hk.after(n)
	}

	return foldRun(n).Sum()
}

// foldRun starts a run fingerprint: fired event count, final clock, then
// every flow's terminal record in flow-ID order — id, state bits (1 done,
// 2 aborted), finish time, bytes received.
func foldRun(n *topo.Network) *Digest {
	d := NewDigest()
	d.Add(n.Fired())
	d.Add(uint64(n.Now()))
	d.Add(uint64(n.Table.Len()))
	for id := 1; id <= n.Table.Len(); id++ {
		f := n.Table.Get(pkt.FlowID(id))
		d.Add(uint64(f.Info.ID))
		bits := uint64(0)
		if f.Done {
			bits |= 1
		}
		if f.Aborted {
			bits |= 2
		}
		d.Add(bits)
		d.Add(uint64(f.FinishAt))
		d.Add(uint64(f.RxBytes))
	}
	return d
}

// Digest is an incremental FNV-1a hash over a sequence of uint64 words.
type Digest struct{ h uint64 }

// NewDigest returns a Digest at the FNV-1a offset basis.
func NewDigest() *Digest { return &Digest{h: 14695981039346656037} }

// Add mixes one word into the digest, little-endian byte by byte.
func (d *Digest) Add(v uint64) {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		d.h = (d.h ^ (v & 0xff)) * prime
		v >>= 8
	}
}

// Sum returns the current hash value.
func (d *Digest) Sum() uint64 { return d.h }
