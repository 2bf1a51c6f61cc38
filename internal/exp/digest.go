package exp

import (
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
	"mlcc/internal/topo"
)

// DigestConfig is the determinism-digest run of alg at seed: a medium two-DC
// fabric (8 hosts per leaf, 25 Gbps NICs, set explicitly so the dumbbell
// keeps them too) under websearch at 0.5 intra / 0.2 cross load over a 2 ms
// arrival window, run to 60 ms. Callers attach planes, shards or the
// dumbbell to it. Every plane must be behaviour-free — telemetry, ledger,
// guard and observer never schedule an event or draw randomness (sampling
// and publishing are pump-driven with the engines quiescent; only a guard
// stall's requested halt legitimately changes an outcome), an empty or
// vacuous fault plan draws from no PRNG stream — and a sharded run
// byte-identical to shards=1, active fault plans included. The digest tests
// enforce both by comparing each combination with the bare run's golden
// digest.
func DigestConfig(alg string, seed int64) spec.Config {
	return spec.Config{Algorithm: alg, Seed: seed, HostsPerLeaf: 8, HostRate: 25 * sim.Gbps,
		Workload: "websearch", IntraLoad: 0.5, CrossLoad: 0.2, Duration: 2 * sim.Millisecond, Deadline: 60 * sim.Millisecond}
}

// DeterminismDigest builds c — normally a DigestConfig — runs it through
// spec.Built.Run and returns an FNV-1a hash over (fired event count,
// final clock, per-flow completion records in flow-ID order) with the run.
// The digest pins the exact event ordering of the simulator: any change to
// scheduling, packet pooling or queue mechanics that alters behaviour — even
// a one-event reorder — changes the hash. Performance rewrites of the hot
// path must keep it bit-identical (see the "Performance model" section of
// DESIGN.md). It panics if c does not build.
func DeterminismDigest(c spec.Config) (uint64, *spec.Outcome) {
	b, err := c.Build()
	if err != nil {
		panic(err)
	}
	r := b.Run("digest", nil)
	return foldRun(r.Net).Sum(), r
}

// foldRun starts a run fingerprint: fired event count, final clock, then
// every flow's terminal record in flow-ID order — id, state bits (1 done,
// 2 aborted), end time (host.Flow.End), bytes received.
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
		d.Add(uint64(f.End()))
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
