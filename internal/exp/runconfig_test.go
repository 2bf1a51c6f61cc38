package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mlcc/internal/audit"
	"mlcc/internal/fault"
	"mlcc/internal/guard"
	"mlcc/internal/host"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
	"mlcc/internal/workload"
)

// A fuzzed run's generated faults land inside faultHorizon; the rest of its
// Deadline is drain time after the last fault heals.
const faultHorizon = 20 * sim.Millisecond

// longHaulOf spreads a fuzzed uint16 log-uniformly over [10 µs, 100 ms],
// rounded to whole microseconds; longHaulArg is its inverse on that grid.
func longHaulOf(u uint16) sim.Time {
	return sim.Time(math.Round(10*math.Pow(10, 4*float64(u)/math.MaxUint16))) * sim.Microsecond
}

func longHaulArg(d sim.Time) uint16 {
	return uint16(math.Round(math.MaxUint16 * math.Log10(float64(d)/float64(10*sim.Microsecond)) / 4))
}

// runConfig decodes a FuzzRunConfig input into a spec.Config that is valid
// by construction: the algorithm; the dumbbell (2–4 hosts per ToR) or the
// fabric at 1–3 spines, 1–3 leaves and 1–4 hosts per leaf, at least two
// hosts per DC; the long haul; fixed flows — two long cross-DC transfers in
// opposite directions and two short intra-DC ones, plus one more cross flow
// and one more intra flow from four hosts per DC; the guard and the ledger
// armed; and a plan generated from seed over the built network's fault
// surface, with the feedback watchdog armed whenever the plan attacks
// feedback — without it a feedback blackout silently starves a sender. The
// run lasts 300 ms plus 64 long-haul delays.
func runConfig(algIdx uint8, dumbbell bool, spines, leaves, hostsPerLeaf uint8, longHaul uint16, seed int64) (spec.Config, error) {
	c := spec.Config{
		Algorithm: allAlgs[int(algIdx)%len(allAlgs)],
		Dumbbell:  dumbbell,
		HostRate:  25 * sim.Gbps,
		Guard:     &guard.Config{},
		Audit:     true,
		Seed:      seed,
	}
	if dumbbell {
		c.HostsPerLeaf = 2 + int(hostsPerLeaf)%3
	} else {
		c.SpinesPerDC, c.LeavesPerDC, c.HostsPerLeaf = 1+int(spines)%3, 1+int(leaves)%3, 1+int(hostsPerLeaf)%4
		if c.LeavesPerDC*c.HostsPerLeaf < 2 {
			c.HostsPerLeaf = 2
		}
	}
	c.LongHaulDelay = longHaulOf(longHaul)
	c.Deadline = 300*sim.Millisecond + 64*c.LongHaulDelay

	half := c.Hosts() / 2
	c.Flows = []workload.FlowSpec{
		{Src: 0, Dst: half, Size: 4 << 20, Start: sim.Millisecond},
		{Src: half + 1, Dst: 1, Size: 4 << 20, Start: sim.Millisecond},
		{Src: 0, Dst: 1, Size: 1 << 20, Start: sim.Millisecond},
		{Src: half, Dst: half + 1, Size: 1 << 20, Start: sim.Millisecond},
	}
	if half >= 4 {
		c.Flows = append(c.Flows,
			workload.FlowSpec{Src: 2, Dst: half + 2, Size: 2 << 20, Start: 2 * sim.Millisecond},
			workload.FlowSpec{Src: 1, Dst: 3, Size: 1 << 20, Start: 2 * sim.Millisecond})
	}

	b, err := c.Build()
	if err != nil {
		return spec.Config{}, err
	}
	links, nodes := b.Net.FaultSurface()
	c.Fault = fault.GeneratePlan(links, nodes, seed, faultHorizon)
	if c.Fault.HasFeedback() {
		c.FBWatchdogK = host.DefaultWatchdogK
	}
	return c, nil
}

// specJSON renders sc as a run spec, the form mlccsim -spec replays.
func specJSON(t *testing.T, sc spec.Config) string {
	t.Helper()
	b, err := json.MarshalIndent(struct {
		Config spec.Config `json:"config"`
	}{sc}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkRun runs sc at shards 1 and 2 and fails t on any chaosRun invariant
// at either layout or when the two digests differ, logging sc as a run spec.
func checkRun(t *testing.T, sc spec.Config) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("run spec (mlccsim -spec replays it):\n%s", specJSON(t, sc))
		}
	}()
	var digests [2]uint64
	for i, shards := range []int{1, 2} {
		var probs []string
		probs, digests[i] = chaosRun(t, sc, shards)
		for _, p := range probs {
			t.Errorf("[shards=%d] %s", shards, p)
		}
	}
	if digests[0] != digests[1] {
		t.Errorf("shard divergence: digest %#016x (shards=1) != %#016x (shards=2)", digests[0], digests[1])
	}
}

// chaosRun runs sc through cell.simulate at the given shard count and holds
// the run to every invariant the simulator promises under arbitrary faults.
// It returns the failures and the run's digest: foldRun plus the fault
// counts the run summary sums off the devices.
func chaosRun(t *testing.T, sc spec.Config, shards int) (probs []string, digest uint64) {
	t.Helper()
	// received[id] is when flow id's receiver took its last byte: one writer
	// per slot, each on its receiver's shard.
	var received []sim.Time
	c := cell{name: "runconfig", config: func(Config) spec.Config { return sc }, place: func(o *outcome) error {
		received = make([]sim.Time, o.n.Table.Len()+1)
		for _, h := range o.n.Hosts {
			h.OnFlowDone = func(f *host.Flow) { received[f.Info.ID] = h.Eng.Now() }
		}
		return nil
	}}
	o, err := c.simulate(sc.Algorithm, Config{Scale: Quick, Seed: sc.Seed, Shards: shards})
	if err != nil {
		t.Fatalf("%s shards=%d: %v", sc.Algorithm, shards, err)
	}
	alg, plan := sc.Algorithm, sc.Fault
	n, sum := o.n, &o.sum
	probs = c.gate(alg, sum)
	bad := func(format string, args ...any) { probs = append(probs, fmt.Sprintf(format, args...)) }
	if shards > 1 && n.ShardCount() != shards {
		bad("requested %d shards but ran on %d", shards, n.ShardCount())
	}
	if n.Guard.Deadlocks > 0 {
		bad("guard found %d pause-cycle deadlock(s)", n.Guard.Deadlocks)
	}

	// What the faults did, as the devices they hit counted it.
	type counter struct {
		name string
		v    int64
	}
	digested := []counter{
		{"fault drops", sum.FaultDrops},
		{"feedback drops", sum.FBDropped},
		{"feedback delays", sum.FBDelayed},
		{"feedback corruptions", sum.FBCorrupted},
		{"host crashes", sum.Crashes},
		{"host restarts", sum.Restarts},
		{"switch fails", sum.SwitchFails},
		{"switch recovers", sum.SwitchRecovers},
	}
	d := foldRun(n)
	for _, ctr := range digested {
		d.Add(uint64(ctr.v))
		if ctr.v < 0 {
			bad("negative device counter: %s = %d", ctr.name, ctr.v)
		}
	}
	var faultData int64
	for _, r := range n.Audit().Flows() {
		faultData += r.Fates[audit.Corrupt].Pkts + r.Fates[audit.Down].Pkts
	}
	if faultData > sum.FaultDrops {
		bad("ledger's fault-destroyed data frames %d exceed the ports' fault drops %d", faultData, sum.FaultDrops)
	}
	for _, ev := range plan.Events {
		if (ev.Action == fault.LinkDown || ev.Action == fault.LinkUp) && n.Faults.Down(ev.Link) {
			bad("link %q still down after its recovery event", ev.Link)
		}
	}

	// The generator pairs every outage with a recovery inside the horizon,
	// so every node event fired and no device is down at run end.
	planned := map[fault.NodeAction]int64{}
	for _, ne := range plan.Nodes {
		planned[ne.Action]++
	}
	got := [4]int64{sum.Crashes, sum.Restarts, sum.SwitchFails, sum.SwitchRecovers}
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

	// A flow's fate: a done flow's one FCT sample ends at its receiver's
	// completion; the sender alone aborts it. Both can happen to one flow
	// (its sender deaf to every ACK), and then it counts as done.
	var aborts, flagged int64
	for _, h := range n.Hosts {
		aborts += h.Aborted
	}
	done := 0
	for _, f := range n.Table.All() {
		if f.Aborted {
			flagged++
		}
		if !f.Done {
			continue
		}
		if f.RxBytes < f.Info.Size {
			bad("flow %d done with %d/%d bytes received", f.Info.ID, f.RxBytes, f.Info.Size)
		}
		if done >= len(sum.Samples) || sum.IDs[done] != f.Info.ID || sum.Samples[done].FCT != received[f.Info.ID]-f.Start {
			bad("done flow %d (received at %v) is not the next FCT sample", f.Info.ID, received[f.Info.ID])
			break
		}
		done++
	}
	if done != len(sum.Samples) || sum.Done+sum.Aborted+sum.Unfinished != sum.Flows {
		bad("%d samples, %d done flows; %d flows != %d done + %d aborted + %d unfinished",
			len(sum.Samples), done, sum.Flows, sum.Done, sum.Aborted, sum.Unfinished)
	}
	if aborts != flagged {
		bad("host abort counters %d != %d flows flagged aborted", aborts, flagged)
	}
	if sum.WatchdogRecovers > sum.WatchdogDecays {
		bad("watchdog recovered %d halvings but only %d were applied", sum.WatchdogRecovers, sum.WatchdogDecays)
	}
	return probs, d.Sum()
}

// FuzzRunConfig is the adversarial soak: runConfig decodes an input into a
// spec.Config — algorithm, shape, long haul and a fault plan generated over
// the network it runs on — and checkRun runs it at shards 1 and 2. The seed
// corpus is every algorithm × {dumbbell, fabric} × long haul ∈ {10 µs,
// 500 µs, 3 ms, 100 ms}, over three dumbbell and four fabric shapes; a
// deep sweep is `go test -fuzz FuzzRunConfig ./internal/exp/`.
func FuzzRunConfig(f *testing.F) {
	longHauls := []sim.Time{10 * sim.Microsecond, 500 * sim.Microsecond, 3 * sim.Millisecond, 100 * sim.Millisecond}
	fabrics := [][3]uint8{{1, 1, 1}, {0, 2, 0}, {2, 0, 3}, {0, 1, 2}} // (spines, leaves, hosts per leaf) - 1
	for alg := range allAlgs {
		for j, lh := range longHauls {
			if longHaulOf(longHaulArg(lh)) != lh {
				f.Fatalf("long haul %v is not on the fuzzed grid", lh)
			}
			sh := fabrics[j]
			f.Add(uint8(alg), true, uint8(0), uint8(0), uint8(j), longHaulArg(lh), int64(1+j))
			f.Add(uint8(alg), false, sh[0], sh[1], sh[2], longHaulArg(lh), int64(1+j))
		}
	}
	f.Fuzz(func(t *testing.T, algIdx uint8, dumbbell bool, spines, leaves, hostsPerLeaf uint8, longHaul uint16, seed int64) {
		sc, err := runConfig(algIdx, dumbbell, spines, leaves, hostsPerLeaf, longHaul, seed)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, sc)
	})
}

// TestRunConfigRegressions replays every run spec under
// testdata/runconfig through checkRun. Both files once diverged across
// layouts: Restart skipped a parked flow the receiver had completed, reading
// Done from the receiver's shard. dcqcn's diverged only with the guard's
// quiescent ticks moving the barriers.
func TestRunConfigRegressions(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "runconfig", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no run specs under testdata/runconfig: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			r, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sc, err := spec.Read(r)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, sc)
		})
	}
}

// TestChaosQuiescentReads drives a sharded FuzzRunConfig run with a periodic
// OnQuiescent hook reading the run summary's cross-shard fault sums and the
// injector's link state mid-run — the documented safe point for such reads.
// Under `go test -race` this proves the quiescent-read contract: no engine
// goroutine races the sums. The test also pins that the sums are monotone
// non-decreasing across quiescent samples.
func TestChaosQuiescentReads(t *testing.T) {
	sc, err := runConfig(0, true, 0, 0, 0, longHaulArg(500*sim.Microsecond), 3)
	if err != nil {
		t.Fatal(err)
	}
	var samples int
	c := cell{name: "quiescent", config: func(Config) spec.Config { return sc }}
	c.place = func(o *outcome) error {
		n := o.n
		if n.ShardCount() != 2 {
			t.Fatalf("ShardCount = %d, want 2", n.ShardCount())
		}
		var lastTotal, lastFB int64
		n.OnQuiescent(2*sim.Millisecond, func(now sim.Time) {
			samples++
			s := n.Summary()
			if tot := s.FaultDrops; tot < lastTotal {
				t.Errorf("t=%v: FaultDrops went backwards: %d -> %d", now, lastTotal, tot)
			} else {
				lastTotal = tot
			}
			fb := s.FBDropped + s.FBDelayed + s.FBCorrupted
			if fb < lastFB {
				t.Errorf("t=%v: feedback aggregates went backwards: %d -> %d", now, lastFB, fb)
			} else {
				lastFB = fb
			}
			_ = n.Faults.Down("longhaul") // link state is quiescent-readable too
			for _, h := range n.Hosts {
				if h.Aborted < 0 || h.WatchdogDecays < 0 {
					t.Errorf("t=%v: negative host counter", now)
				}
			}
		})
		return nil
	}
	o, err := c.simulate(sc.Algorithm, Config{Scale: Quick, Seed: sc.Seed, Shards: 2})
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
