package exp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mlcc/internal/chaos"
	"mlcc/internal/fault"
	"mlcc/internal/guard"
	"mlcc/internal/host"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
	"mlcc/internal/topo"
)

// A chaos cell's generated faults land inside chaosHorizon; the rest of
// chaosWindow, its run length at both scales, is drain time after the last
// fault heals.
const (
	chaosHorizon = 20 * sim.Millisecond
	chaosWindow  = 300 * sim.Millisecond
)

// chaosCell runs a generated fault plan on a chaos.Topo at soak scale: two
// hosts per leaf (2 spines × 2 leaves per DC on the fabric), a 500 µs long
// haul, the guard armed, and the feedback watchdog armed whenever the plan
// attacks feedback — without it a feedback blackout silently starves a
// sender. Fixed flows: two long cross-DC transfers in opposite directions,
// two short intra-DC ones, and on the fabric one more cross flow plus a
// rack-crossing intra flow.
func chaosCell(tp chaos.Topo, plan *fault.Plan) cell {
	return cell{
		name: tp.Name,
		config: func(Config) spec.Config {
			c := testbed(500*sim.Microsecond, chaosWindow)
			if !tp.Dumbbell {
				c = spec.Config{SpinesPerDC: 2, LeavesPerDC: 2, HostsPerLeaf: 2, LongHaulDelay: 500 * sim.Microsecond, Deadline: chaosWindow}
			}
			c.Fault = plan
			if plan.HasFeedback() {
				c.FBWatchdogK = host.DefaultWatchdogK
			}
			c.Guard = &guard.Config{}
			return c
		},
		place: func(o *outcome) error {
			n := o.n
			half := n.NumHosts() / 2
			n.AddFlow(0, half, 4<<20, sim.Millisecond)
			n.AddFlow(half+1, 1, 4<<20, sim.Millisecond)
			n.AddFlow(0, 1, 1<<20, sim.Millisecond)
			n.AddFlow(half, half+1, 1<<20, sim.Millisecond)
			if !tp.Dumbbell {
				n.AddFlow(2, half+2, 2<<20, 2*sim.Millisecond)
				n.AddFlow(1, 3, 1<<20, 2*sim.Millisecond)
			}
			return nil
		},
	}
}

// chaosRun runs one algorithm under a chaos cell and holds the run to every
// invariant the simulator promises under arbitrary faults. It returns the
// failures and the run's digest: foldRun plus the injector's counters.
func chaosRun(t *testing.T, c *cell, alg string, plan *fault.Plan, shards int) (probs []string, digest uint64) {
	t.Helper()
	o, err := c.run(alg, Config{Scale: Quick, Seed: 1, Shards: shards})
	if err != nil {
		t.Fatalf("%s/%s shards=%d: %v", alg, c.name, shards, err)
	}
	n, sum, inj := o.n, &o.sum, o.n.Faults
	probs = c.gate(alg, sum)
	bad := func(format string, args ...any) { probs = append(probs, fmt.Sprintf(format, args...)) }
	if shards > 1 && n.ShardCount() != shards {
		bad("requested %d shards but ran on %d", shards, n.ShardCount())
	}
	if n.Guard.Deadlocks > 0 {
		bad("guard found %d pause-cycle deadlock(s)", n.Guard.Deadlocks)
	}

	type counter struct {
		name string
		v    int64
	}
	digested := []counter{
		{"loss drops", inj.LossDrops()},
		{"down drops", inj.DownDrops()},
		{"data drops", inj.DataDrops()},
		{"down events", inj.DownEvents()},
		{"degrade events", inj.DegradeEvents()},
		{"feedback drops", inj.FeedbackDropped()},
		{"feedback delays", inj.FeedbackDelayed()},
		{"feedback corruptions", inj.FeedbackCorrupted()},
		{"node crashes", inj.NodeCrashes()},
		{"node restarts", inj.NodeRestarts()},
		{"switch fails", inj.SwitchFails()},
		{"switch recovers", inj.SwitchRecovers()},
	}
	d := foldRun(n)
	for _, ctr := range digested {
		d.Add(uint64(ctr.v))
	}
	for _, ctr := range append(digested, counter{"total drops", inj.TotalDrops()}) {
		if ctr.v < 0 {
			bad("negative injector counter: %s = %d", ctr.name, ctr.v)
		}
	}
	if inj.TotalDrops() != inj.LossDrops()+inj.DownDrops() {
		bad("total drops %d != loss %d + down %d", inj.TotalDrops(), inj.LossDrops(), inj.DownDrops())
	}
	if inj.DataDrops() > inj.TotalDrops() {
		bad("data drops %d exceed total drops %d", inj.DataDrops(), inj.TotalDrops())
	}
	for _, ev := range plan.Events {
		if (ev.Action == fault.LinkDown || ev.Action == fault.LinkUp) && inj.Down(ev.Link) {
			bad("link %q still down after its recovery event", ev.Link)
		}
	}

	// The generator pairs every outage with a recovery inside the horizon,
	// so every node event fired and no device is down at run end.
	planned := map[fault.NodeAction]int64{}
	for _, ne := range plan.Nodes {
		planned[ne.Action]++
	}
	got := [4]int64{inj.NodeCrashes(), inj.NodeRestarts(), inj.SwitchFails(), inj.SwitchRecovers()}
	want := [4]int64{planned[fault.HostCrash], planned[fault.HostRestart], planned[fault.SwitchFail], planned[fault.SwitchRecover]}
	if got != want {
		bad("node-fault counters (crash, restart, fail, recover) %v != plan %v", got, want)
	}
	for i, h := range n.Hosts {
		if h.Crashed() {
			bad("host%d still crashed after its restart event", i)
		}
		if h.ParkedFlows() != 0 {
			bad("host%d still has %d parked flows after restart", i, h.ParkedFlows())
		}
	}
	for _, sw := range n.Switches() {
		if sw.Failed() {
			bad("%s still failed after its recovery event", n.NodeName(int32(sw.ID())))
		}
	}

	for _, f := range n.Table.All() {
		if f.Done && f.Aborted {
			bad("flow %d both done and aborted", f.Info.ID)
		}
		if f.Done && f.RxBytes < f.Info.Size {
			bad("flow %d done with %d/%d bytes received", f.Info.ID, f.RxBytes, f.Info.Size)
		}
	}
	if sum.HostAborts != int64(sum.Aborted) {
		bad("host abort counters %d != aborted flows %d", sum.HostAborts, sum.Aborted)
	}
	if sum.WatchdogRecovers > sum.WatchdogDecays {
		bad("watchdog recovered %d halvings but only %d were applied", sum.WatchdogRecovers, sum.WatchdogDecays)
	}
	return probs, d.Sum()
}

// FuzzChaosCell is the chaos soak: an input names an algorithm, a chaos
// topology and a plan seed; chaos.GeneratePlan turns the seed into a fault
// plan, and the cell runs at shards 1 and 2. An input fails on any chaosRun
// invariant at either layout, or when the two digests differ. The seed
// corpus is every (algorithm, topology, seed ∈ {1, 2}) plus two regressions;
// a deep sweep is `go test -fuzz FuzzChaosCell ./internal/exp/`.
func FuzzChaosCell(f *testing.F) {
	for alg := range allAlgs {
		for _, dumbbell := range []bool{true, false} {
			for seed := int64(1); seed <= 2; seed++ {
				f.Add(uint8(alg), dumbbell, seed)
			}
		}
	}
	// Both once diverged across layouts: Restart skipped a parked flow the
	// receiver had completed, reading Done from the receiver's shard. Seed 72
	// diverged only with the guard's quiescent ticks moving the barriers.
	f.Add(uint8(slices.Index(allAlgs, topo.AlgPowerTCP)), true, int64(78))
	f.Add(uint8(slices.Index(allAlgs, topo.AlgDCQCN)), true, int64(72))

	f.Fuzz(func(t *testing.T, algIdx uint8, dumbbell bool, seed int64) {
		tp := chaos.TwoDCTopo()
		if dumbbell {
			tp = chaos.DumbbellTopo()
		}
		alg := allAlgs[int(algIdx)%len(allAlgs)]
		plan := chaos.GeneratePlan(tp, seed, chaosHorizon)
		defer func() {
			if t.Failed() {
				var b strings.Builder
				if err := fault.WritePlan(&b, plan); err != nil {
					t.Fatal(err)
				}
				t.Logf("alg=%s topo=%s seed=%d plan:\n%s", alg, tp.Name, seed, b.String())
			}
		}()
		c := chaosCell(tp, plan)
		var digests [2]uint64
		for i, shards := range []int{1, 2} {
			var probs []string
			probs, digests[i] = chaosRun(t, &c, alg, plan, shards)
			for _, p := range probs {
				t.Errorf("[shards=%d] %s", shards, p)
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("shard divergence: digest %#016x (shards=1) != %#016x (shards=2)", digests[0], digests[1])
		}
	})
}

// TestChaosQuiescentReads drives a sharded chaos cell with a periodic
// OnQuiescent hook reading the injector's cross-shard aggregates and link
// state mid-run — the documented safe point for such reads. Under `go test
// -race` this proves the quiescent-read contract: no engine goroutine races
// the aggregation. The test also pins that the aggregates are monotone
// non-decreasing across quiescent samples.
func TestChaosQuiescentReads(t *testing.T) {
	tp := chaos.DumbbellTopo()
	c := chaosCell(tp, chaos.GeneratePlan(tp, 3, chaosHorizon))
	var samples int
	place := c.place
	c.place = func(o *outcome) error {
		n := o.n
		if n.ShardCount() != 2 {
			t.Fatalf("ShardCount = %d, want 2", n.ShardCount())
		}
		var lastTotal, lastFB int64
		n.OnQuiescent(2*sim.Millisecond, func(now sim.Time) {
			samples++
			inj := n.Faults
			if tot := inj.TotalDrops(); tot < lastTotal {
				t.Errorf("t=%v: TotalDrops went backwards: %d -> %d", now, lastTotal, tot)
			} else {
				lastTotal = tot
			}
			fb := inj.FeedbackDropped() + inj.FeedbackDelayed() + inj.FeedbackCorrupted()
			if fb < lastFB {
				t.Errorf("t=%v: feedback aggregates went backwards: %d -> %d", now, lastFB, fb)
			} else {
				lastFB = fb
			}
			_ = inj.Down("longhaul") // link state is quiescent-readable too
			for _, h := range n.Hosts {
				if h.Aborted < 0 || h.WatchdogDecays < 0 {
					t.Errorf("t=%v: negative host counter", now)
				}
			}
		})
		return place(o)
	}
	o, err := c.run(topo.AlgMLCC, Config{Scale: Quick, Seed: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("quiescent hook never fired")
	}
	for _, p := range o.sum.AuditProblems {
		t.Errorf("conservation violation: %s", p)
	}
}
