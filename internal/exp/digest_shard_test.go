package exp

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"mlcc/internal/fault"
	"mlcc/internal/metrics"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
)

// shardTestAlgs returns the algorithms the shard-parity tests sweep: the
// full register under the normal loop, mlcc+dcqcn under -short (matching
// the golden-digest test's policy).
func shardTestAlgs(t *testing.T) []string {
	algs := []string{"mlcc", "dcqcn"}
	if !testing.Short() {
		algs = append(algs, "timely", "hpcc", "powertcp")
	}
	return algs
}

// TestShardDigestEquality is the tentpole property test: for every
// algorithm, a sharded run (one engine per DC, conservative barriers at the
// long-haul delay, fixed DC0→DC1 mailbox flush order) must produce a
// byte-identical determinism digest to the single-engine run — on both the
// §4.6 dumbbell and the full two-DC spine-leaf fabric. The digest hashes the
// fired-event count, the final clock, and every flow's completion record, so
// equality means the sharded engine delivered every cross-DC frame at the
// exact time a single engine would have, and fired the same number of events
// doing it.
func TestShardDigestEquality(t *testing.T) {
	for _, alg := range shardTestAlgs(t) {
		for _, dumbbell := range []bool{true, false} {
			alg, dumbbell := alg, dumbbell
			name := fmt.Sprintf("%s/twodc", alg)
			if dumbbell {
				name = fmt.Sprintf("%s/dumbbell", alg)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				single, _ := digestOf(alg, func(c *spec.Config) { c.Shards, c.Dumbbell = 1, dumbbell })
				sharded, _ := digestOf(alg, func(c *spec.Config) { c.Shards, c.Dumbbell = 2, dumbbell })
				if single != sharded {
					t.Errorf("shards=2 digest %#016x != shards=1 digest %#016x", sharded, single)
				}
				if !dumbbell {
					// The TwoDC single-engine digest is itself pinned: a
					// sharded build with shards=1 must go through the exact
					// single-engine code path the goldens were recorded on.
					if want := goldenDigests[alg]; single != want {
						t.Errorf("shards=1 digest %#016x != golden %#016x", single, want)
					}
				}
			})
		}
	}
}

// TestINTStackCapacityIsTight verifies the capacity topo derives for INT
// stacks (topo.Network's stamping path, handed to every pkt.Pool) against
// what the digest scenario actually stamps, on both topologies at both shard
// counts: no stack outgrew the capacity (so each was one allocation), the
// deepest stack any frame carried equals it (so none is oversized), and the
// algorithms that never stamp INT allocated no stack at all. A frame holds a
// stack only while it carries records and a pool keeps every stack it frees,
// so the pools allocate no more stacks than frames. Under MLCC far fewer:
// the sender-side DCI moves a data frame's records onto its Switch-INT frame
// and the receiver-side DCI strips every ACK, so a stack serves one stretch
// of a path and goes back to its pool for the next frame. HPCC and PowerTCP
// read the INT their ACKs echo, so they must keep about one stack per frame
// — a strip leaking to them fails here.
func TestINTStackCapacityIsTight(t *testing.T) {
	want := map[string][2]int{ // {two-DC fabric, dumbbell}
		"mlcc": {3, 2}, "hpcc": {6, 4}, "powertcp": {6, 4}, "dcqcn": {0, 0}, "timely": {0, 0},
	}
	// Most stacks per frame MLCC may allocate (measured 0.057 and 0.033 at
	// shards=1, 0.058 and 0.034 at shards=2), and fewest the INT-echoing
	// algorithms may.
	mlccBound := [2]float64{0.08, 0.05}
	const echoFloor = 0.95
	for _, alg := range shardTestAlgs(t) {
		for i, dumbbell := range []bool{false, true} {
			for _, shards := range []int{1, 2} {
				alg, dumbbell, shards, stackCap := alg, dumbbell, shards, want[alg][i]
				t.Run(fmt.Sprintf("%s/dumbbell=%v/shards=%d", alg, dumbbell, shards), func(t *testing.T) {
					t.Parallel()
					_, r := digestOf(alg, func(c *spec.Config) { c.Shards, c.Dumbbell = shards, dumbbell })
					n := r.Net
					deepest, stacks, frames := 0, int64(0), int64(0)
					for i, pl := range n.Pools {
						stacks += pl.Stacks
						frames += pl.Allocs
						if pl.StackCap != stackCap {
							t.Errorf("pool %d: stack capacity %d, want %d", i, pl.StackCap, stackCap)
						}
						if pl.WidestStack > pl.StackCap {
							t.Errorf("pool %d: a stack grew to %d records, past the capacity of %d", i, pl.WidestStack, pl.StackCap)
						}
						deepest = max(deepest, pl.DeepestStack)
					}
					if deepest != stackCap {
						t.Errorf("deepest stack carried %d records, capacity is %d", deepest, stackCap)
					}
					if stacks > frames {
						t.Errorf("pools allocated %d stacks for %d frames", stacks, frames)
					}
					perFrame := float64(stacks) / float64(frames)
					if alg == "mlcc" && perFrame > mlccBound[i] {
						t.Errorf("MLCC's stacks are not reused: %d stacks for %d frames (%.3f per frame, bound %.3f)",
							stacks, frames, perFrame, mlccBound[i])
					}
					if (alg == "hpcc" || alg == "powertcp") && perFrame < echoFloor {
						t.Errorf("%s's ACKs lost their INT: %d stacks for %d frames (%.2f per frame, floor %.2f)",
							alg, stacks, frames, perFrame, echoFloor)
					}
				})
			}
		}
	}
}

// shardFaultPlans returns the active plans the shard-parity fault test
// sweeps: a data-plane plan (long-haul blackout + recovery, a degrade with
// jitter, and a Bernoulli loss window — every scripted action and both RNG
// stream families exercised) and a feedback-plane plan (drop + corrupt +
// jittered delay on every host). Both are active well inside the 60 ms
// digest horizon so they genuinely perturb the run.
func shardFaultPlans() map[string]*fault.Plan {
	return map[string]*fault.Plan{
		"data": {
			Seed: 77,
			Events: []fault.Event{
				{At: 3 * sim.Millisecond, Link: "longhaul", Action: fault.LinkDown},
				{At: 4 * sim.Millisecond, Link: "longhaul", Action: fault.LinkUp},
				{At: 6 * sim.Millisecond, Link: "longhaul", Action: fault.Degrade,
					RateFactor: 0.5, ExtraDelay: 50 * sim.Microsecond, Jitter: 10 * sim.Microsecond},
				{At: 8 * sim.Millisecond, Link: "longhaul", Action: fault.Restore},
			},
			Loss: []fault.LossRule{
				{Link: "longhaul", Prob: 1e-3, Start: 5 * sim.Millisecond, End: 12 * sim.Millisecond},
			},
		},
		"feedback": {
			Seed: 78,
			Feedback: []fault.FeedbackRule{
				{Host: "*", Drop: 0.1, Corrupt: 0.2,
					Delay: 20 * sim.Microsecond, Jitter: 10 * sim.Microsecond,
					Start: 2 * sim.Millisecond, End: 12 * sim.Millisecond},
			},
		},
	}
}

// TestShardDigestFaultPlans extends the shard-parity property to active
// fault plans — the feature that used to pin builds to a single engine. A
// sharded run under a live data-plane plan (long-haul blackout, degrade,
// Bernoulli loss) or feedback-plane plan (drop/corrupt/delay at host
// ingress) must stay byte-identical to the single-engine run: scripted
// events fire per direction on the engine owning each port at the same
// absolute time, loss rules draw from per-direction PRNG streams, and
// feedback filters keep per-host streams regardless of which shard hosts
// them. The data plan must also move the TwoDC digest off the fault-free
// golden, proving it actually fired.
func TestShardDigestFaultPlans(t *testing.T) {
	for planName, plan := range shardFaultPlans() {
		for _, alg := range shardTestAlgs(t) {
			for _, dumbbell := range []bool{true, false} {
				planName, plan, alg, dumbbell := planName, plan, alg, dumbbell
				topoName := "twodc"
				if dumbbell {
					topoName = "dumbbell"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", planName, alg, topoName), func(t *testing.T) {
					t.Parallel()
					single, _ := digestOf(alg, func(c *spec.Config) { c.Fault, c.Shards, c.Dumbbell = plan, 1, dumbbell })
					sharded, _ := digestOf(alg, func(c *spec.Config) { c.Fault, c.Shards, c.Dumbbell = plan, 2, dumbbell })
					if single != sharded {
						t.Errorf("%s plan: shards=2 digest %#016x != shards=1 digest %#016x",
							planName, sharded, single)
					}
					if planName == "data" && !dumbbell {
						if single == goldenDigests[alg] {
							t.Errorf("active data plan left the digest at the fault-free golden %#016x", single)
						}
					}
				})
			}
		}
	}
}

// TestShardDigestNodeFaults extends shard parity to node-level faults: a plan
// that crashes and restarts a host mid-run and fails/recovers the sender-side
// DCI switch must produce byte-identical digests at shards=1 and shards=2 for
// every algorithm, on both topologies. The DCI failure is the interesting
// case — on a sharded build its long-haul port's remote end lives on the peer
// engine, so the cut and the restore fire through a second hook at the same
// absolute times the single-engine build uses. The plan must also move the
// TwoDC digest off the fault-free golden, proving the node events fired.
func TestShardDigestNodeFaults(t *testing.T) {
	plan := &fault.Plan{
		Seed: 79,
		Nodes: []fault.NodeEvent{
			{At: 3 * sim.Millisecond, Node: "host0", Action: fault.HostCrash},
			{At: 6 * sim.Millisecond, Node: "host0", Action: fault.HostRestart},
			{At: 8 * sim.Millisecond, Node: "dci0", Action: fault.SwitchFail},
			{At: 9 * sim.Millisecond, Node: "dci0", Action: fault.SwitchRecover},
		},
	}
	for _, alg := range shardTestAlgs(t) {
		for _, dumbbell := range []bool{true, false} {
			alg, dumbbell := alg, dumbbell
			topoName := "twodc"
			if dumbbell {
				topoName = "dumbbell"
			}
			t.Run(fmt.Sprintf("%s/%s", alg, topoName), func(t *testing.T) {
				t.Parallel()
				single, _ := digestOf(alg, func(c *spec.Config) { c.Fault, c.Shards, c.Dumbbell = plan, 1, dumbbell })
				sharded, _ := digestOf(alg, func(c *spec.Config) { c.Fault, c.Shards, c.Dumbbell = plan, 2, dumbbell })
				if single != sharded {
					t.Errorf("node-fault plan: shards=2 digest %#016x != shards=1 digest %#016x",
						sharded, single)
				}
				if !dumbbell && single == goldenDigests[alg] {
					t.Errorf("active node-fault plan left the digest at the fault-free golden %#016x", single)
				}
			})
		}
	}
}

// digestAllPlanes is the digest run with every telemetry plane active —
// flight recorder and time-series sampling with SampleAll.
// It returns the base digest plus a separate fold of the sampled time series,
// which must be shard-count invariant: every series is read at quiescent
// boundaries where all shards agree on simulation state.
func digestAllPlanes(alg string, shards int, dumbbell bool) (base, series uint64) {
	tel := metrics.New(metrics.Options{
		Metrics:            true,
		FlightRecorderSize: 4096,
		SampleInterval:     100 * sim.Microsecond,
		SampleAll:          true,
	})
	base, _ = digestOf(alg, func(c *spec.Config) { c.Telemetry, c.Shards, c.Dumbbell = tel, shards, dumbbell })
	return base, foldSeries(tel)
}

// foldSeries hashes every sampled time series, name-sorted, sample by sample.
// sim.events_pending is excluded: staged cross-shard mailbox frames are not
// engine events until their drain is armed, so the pending count legitimately
// differs mid-run between shard layouts while all physical state agrees.
func foldSeries(tel *metrics.Telemetry) uint64 {
	series := tel.AllSeries()
	sort.Slice(series, func(i, j int) bool { return series[i].Name < series[j].Name })
	d := NewDigest()
	for _, ser := range series {
		if ser.Name == "sim.events_pending" {
			continue
		}
		d.Add(uint64(ser.Len()))
		for i, t := range ser.T {
			d.Add(uint64(t))
			d.Add(math.Float64bits(ser.V[i]))
		}
	}
	return d.Sum()
}

// TestShardDigestTelemetry proves every telemetry plane survives sharding:
// with the flight recorder and time-series sampling (SampleAll) both
// active, (a) the sharded digest must stay byte-identical to the
// shards=1 run — telemetry schedules no events on any shard count because
// sampling is pump-driven at quiescent barriers and each shard records into
// its own ring — (b) the sampled series must fold to the same hash for both
// shard layouts, and (c) the TwoDC base digest must still equal the
// telemetry-off golden, pinning that the planes are passive, not merely
// consistently active. Unlike the bare equality test this sweeps only
// mlcc+dcqcn: the property under test is the telemetry machinery, which is
// algorithm-independent, and SampleAll runs are expensive enough that the
// full register would blow the race-enabled `make check` time budget.
func TestShardDigestTelemetry(t *testing.T) {
	for _, alg := range []string{"mlcc", "dcqcn"} {
		for _, dumbbell := range []bool{true, false} {
			alg, dumbbell := alg, dumbbell
			name := fmt.Sprintf("%s/twodc", alg)
			if dumbbell {
				name = fmt.Sprintf("%s/dumbbell", alg)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				base1, series1 := digestAllPlanes(alg, 1, dumbbell)
				base2, series2 := digestAllPlanes(alg, 2, dumbbell)
				if base1 != base2 {
					t.Errorf("telemetry-on shards=2 digest %#016x != shards=1 digest %#016x", base2, base1)
				}
				if series1 != series2 {
					t.Errorf("sampled series fold differs: shards=2 %#016x != shards=1 %#016x", series2, series1)
				}
				if !dumbbell {
					if want := goldenDigests[alg]; base1 != want {
						t.Errorf("telemetry-on digest %#016x != telemetry-off golden %#016x", base1, want)
					}
				}
			})
		}
	}
}

// TestShardDigestAudit proves the conservation plane survives sharding: with
// per-shard partial ledgers merging to one set of books, (a) attaching the
// audit must leave the sharded digest byte-identical — the ledger is
// passive in each shard exactly as it is on one engine — and (b) the merged
// books must close with zero problems, meaning every frame that crossed the
// shard boundary was debited from its sender-side ledger and credited to the
// receiver-side one.
func TestShardDigestAudit(t *testing.T) {
	for _, alg := range shardTestAlgs(t) {
		for _, dumbbell := range []bool{true, false} {
			alg, dumbbell := alg, dumbbell
			name := fmt.Sprintf("%s/twodc", alg)
			if dumbbell {
				name = fmt.Sprintf("%s/dumbbell", alg)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				bare, _ := digestOf(alg, func(c *spec.Config) { c.Shards, c.Dumbbell = 2, dumbbell })
				audited, r := digestOf(alg, func(c *spec.Config) { c.Audit, c.Shards, c.Dumbbell = true, 2, dumbbell })
				probs := r.Summary.AuditProblems
				if audited != bare {
					t.Errorf("audited sharded digest %#016x != unaudited %#016x", audited, bare)
				}
				if len(probs) != 0 {
					t.Errorf("merged shard ledgers report problems: %v", probs)
				}
			})
		}
	}
}
