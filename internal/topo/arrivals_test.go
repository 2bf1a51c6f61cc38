package topo

import (
	"fmt"
	"slices"
	"testing"

	"mlcc/internal/sim"
)

// TestFlowArrivalsQueueOnePerEngine pins the start cursor: flows registered
// in start order queue one event per engine and still count as pending, and
// every flow starts at its Start, in (start, registration) order — bulk
// flows, one registered out of order, one tying another flow's start and one
// added from a quiescent hook mid-run. Probes on the source's engine just
// before and just after each launch's key see the flow not yet started and
// started.
func TestFlowArrivalsQueueOnePerEngine(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p := testParams(AlgMLCC)
			p.Shards = shards
			n := TwoDC(p)
			dst := func(src int) int { return (src + 1) % n.NumHosts() }

			// Bulk: eight flows in start order, alternating DCs, one per host.
			bulk := []int{0, 16, 1, 17, 2, 18, 3, 19}
			for i, src := range bulk {
				n.AddFlow(src, dst(src), 1<<30, sim.Time(i+1)*sim.Microsecond)
			}
			for i, e := range n.Engines {
				if e.PendingRaw() != 1 {
					t.Errorf("engine %d: PendingRaw %d after %d registrations, want 1", i, e.PendingRaw(), len(bulk))
				}
			}
			if got := n.PendingEvents(); got != len(bulk) {
				t.Fatalf("PendingEvents %d, want %d", got, len(bulk))
			}

			// Per engine, the flows in the order their after-probes fire.
			started := make([][]int, len(n.Engines))
			srcs := map[int]int{}
			probe := func(i, src int, start sim.Time) {
				h, shard := n.Hosts[src], n.shardOf(n.DC(src))
				srcs[i] = src
				n.Engines[shard].At(start, func() {
					if h.ActiveSends() != 1 {
						t.Errorf("flow %d (host %d) not started at its start %v", i, src, start)
					}
					started[shard] = append(started[shard], i)
				})
			}
			// before queues a probe that fires just before the flow's key.
			before := func(i, src int, start sim.Time) {
				h := n.Hosts[src]
				n.engOf(n.DC(src)).At(start, func() {
					if h.ActiveSends() != 0 {
						t.Errorf("flow %d (host %d) started before its key at %v", i, src, start)
					}
				})
			}
			for i, src := range bulk {
				start := sim.Time(i+1) * sim.Microsecond
				before(i, src, start-1)
				probe(i, src, start)
			}
			special := func(i, src int, start sim.Time) {
				before(i, src, start)
				n.AddFlow(src, dst(src), 1<<30, start)
				probe(i, src, start)
			}
			special(8, 4, 2*sim.Microsecond+500) // before the tail
			special(9, 5, 8*sim.Microsecond)     // ties the tail
			n.OnQuiescent(10*sim.Microsecond, func(now sim.Time) {
				if now == 10*sim.Microsecond {
					special(10, 20, now+3*sim.Microsecond)
				}
			})
			n.Run(20 * sim.Microsecond)

			order := []int{0, 1, 8, 2, 3, 4, 5, 6, 7, 9, 10}
			for shard, got := range started {
				want := slices.DeleteFunc(slices.Clone(order), func(i int) bool { return n.shardOf(n.DC(srcs[i])) != shard })
				if !slices.Equal(got, want) {
					t.Errorf("engine %d started flows in order %v, want %v", shard, got, want)
				}
			}
		})
	}
}

// TestAddFlowAllocs is the registration ratchet: a flow registered in start
// order allocates its host.Flow and nothing else but amortized growth of the
// flow table and the start cursor (three allocations, the flow, its launch
// closure and its event, when each flow queued its own heap event).
func TestAddFlowAllocs(t *testing.T) {
	p := testParams(AlgMLCC)
	p.HostsPerLeaf = 32
	n := TwoDC(p)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		src := i % 256
		n.AddFlow(src, (src+1+i%255)%256, 1<<20, sim.Time(i)*sim.Microsecond)
		i++
	})
	if allocs > 1 {
		t.Fatalf("AddFlow: %.0f allocations per flow, want 1", allocs)
	}
}

// BenchmarkAddFlow times one registration, in start order, on the 256-host
// two-DC fabric.
func BenchmarkAddFlow(b *testing.B) {
	p := testParams(AlgMLCC)
	p.HostsPerLeaf = 32
	n := TwoDC(p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := i % 256
		n.AddFlow(src, (src+1+i%255)%256, 1<<20, sim.Time(i)*sim.Microsecond)
	}
}
