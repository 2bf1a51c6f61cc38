package exp

import (
	"mlcc/internal/audit"
	"mlcc/internal/fault"
	"mlcc/internal/guard"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
	"mlcc/internal/topo"
	"mlcc/internal/workload"
)

// DigestOptions selects what DeterminismDigest attaches to the build and how
// the build is laid out. The zero value is the bare run: no plane, one
// engine, the two-DC fabric. Every plane must be behaviour-free — telemetry,
// ledger and guard never schedule an event or draw randomness (sampling is
// pump-driven with the engines quiescent; only a guard stall's requested halt
// legitimately changes an outcome), an empty or vacuous fault plan draws from
// no PRNG stream — and a sharded run byte-identical to shards=1, active fault
// plans included. The digest tests enforce both by comparing each combination
// with the bare run's golden digest.
type DigestOptions struct {
	Telemetry *metrics.Telemetry
	Fault     *fault.Plan
	Audit     *audit.Ledger
	Guard     *guard.Config
	Shards    int  // engines (0 and 1 = one)
	Dumbbell  bool // the §4.6 dumbbell testbed instead of the two-DC fabric
	Resort    bool // explicitly re-sort the generated flows before registering them

	// Prep runs on the built network — flows scheduled, clock still at zero —
	// before the run; After runs once it has finished.
	Prep  func(n *topo.Network)
	After func(n *topo.Network)
}

// DeterminismDigest runs a fixed-seed medium two-DC workload under the named
// algorithm and returns an FNV-1a hash over (fired event count, final clock,
// per-flow completion records in flow-ID order). The digest pins the exact
// event ordering of the simulator: any change to scheduling, packet pooling
// or queue mechanics that alters behaviour — even a one-event reorder —
// changes the hash. Performance rewrites of the hot path must keep it
// bit-identical (see the "Performance model" section of DESIGN.md).
func DeterminismDigest(alg string, seed int64, o DigestOptions) uint64 {
	p := topo.DefaultParams()
	p.HostsPerLeaf = 8
	p.Seed = seed
	p.Telemetry = o.Telemetry
	p.Fault = o.Fault
	p.Audit = o.Audit
	p.Guard = o.Guard
	p.Shards = o.Shards
	build := topo.TwoDC
	if o.Dumbbell {
		build = topo.Dumbbell
	}
	n := build(p.WithAlgorithm(alg))

	flows, err := spec.Generate(n, workload.Websearch(), 0.5, 0.2, 2*sim.Millisecond, seed)
	if err != nil {
		panic(err) // fixed valid spec; unreachable
	}
	if o.Resort {
		workload.SortFlows(flows)
	}
	for _, fs := range flows {
		n.AddFlow(fs.Src, fs.Dst, fs.Size, fs.Start)
	}
	o.Telemetry.StartSampling(60 * sim.Millisecond)
	if o.Prep != nil {
		o.Prep(n)
	}
	n.Run(60 * sim.Millisecond)
	if o.After != nil {
		o.After(n)
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
