package chaos

import (
	"fmt"
	"strings"

	"mlcc/internal/audit"
	"mlcc/internal/fault"
	"mlcc/internal/host"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/topo"
)

// Soak cell geometry. The plan horizon bounds where generated faults land;
// the run window leaves ample drain time after the last fault heals.
const (
	planHorizon = 20 * sim.Millisecond
	runWindow   = 300 * sim.Millisecond
)

// Cell names one soak run completely: the congestion-control algorithm, the
// topology descriptor, and the plan seed. RunCell(c) is a pure function of
// the cell, so a failing cell reported by the soak reproduces by itself.
type Cell struct {
	Alg  string
	Topo Topo
	Seed int64
}

func (c Cell) String() string {
	return fmt.Sprintf("alg=%s topo=%s seed=%d", c.Alg, c.Topo.Name, c.Seed)
}

// Result carries one cell's verdict. Problems is empty when every invariant
// held; Digests records the (shards=1, shards=2) run fingerprints, whose
// equality is itself one of the invariants.
type Result struct {
	Plan     *fault.Plan
	Digests  [2]uint64
	Problems []string
}

// Repro renders the failure reproduction recipe: the cell coordinates and
// the generated plan's JSON, directly feedable to mlccsim -fault-plan.
func (r *Result) Repro(c Cell) string {
	return fmt.Sprintf("repro: %s plan:\n%s", c, PlanJSON(r.Plan))
}

// PlanJSON renders a plan via the canonical JSON encoder.
func PlanJSON(p *fault.Plan) string {
	var b strings.Builder
	if err := fault.WritePlan(&b, p); err != nil {
		return fmt.Sprintf("<plan unencodable: %v>", err)
	}
	return b.String()
}

// runOutcome is the digestible state of one build+run at a fixed shard count.
type runOutcome struct {
	digest   uint64
	problems []string
}

// RunCell generates the cell's plan, runs it at shards=1 and shards=2, and
// checks every soak invariant:
//
//   - the sharded build actually runs on two engines (no silent fallback),
//   - the conservation audit closes clean,
//   - injector counters are non-negative and internally consistent,
//   - flow/host abort and watchdog bookkeeping adds up,
//   - and the two runs produce byte-identical digests.
func RunCell(c Cell) *Result {
	plan := GeneratePlan(c.Topo, c.Seed, planHorizon)
	r := &Result{Plan: plan}
	for i, shards := range []int{1, 2} {
		o := runCellShards(c, plan, shards)
		r.Digests[i] = o.digest
		for _, p := range o.problems {
			r.Problems = append(r.Problems, fmt.Sprintf("[shards=%d] %s", shards, p))
		}
	}
	if r.Digests[0] != r.Digests[1] {
		r.Problems = append(r.Problems, fmt.Sprintf(
			"shard divergence: digest %#016x (shards=1) != %#016x (shards=2)",
			r.Digests[0], r.Digests[1]))
	}
	return r
}

func runCellShards(c Cell, plan *fault.Plan, shards int) runOutcome {
	p := topo.DefaultParams().WithAlgorithm(c.Alg)
	p.Seed = 1
	p.LongHaulDelay = 500 * sim.Microsecond
	p.HostsPerLeaf = 2
	p.Shards = shards
	p.Audit = audit.New()
	p.Fault = plan
	if plan.HasFeedback() {
		// Feedback attacks without the watchdog silently starve; arm the
		// default exactly as mlccsim does for -fb-* flags.
		p.FBWatchdogK = host.DefaultWatchdogK
	}
	var n *topo.Network
	if c.Topo.Dumbbell {
		n = topo.Dumbbell(p)
	} else {
		p.SpinesPerDC = 2
		p.LeavesPerDC = 2
		n = topo.TwoDC(p)
	}
	addFlows(n)
	n.Run(runWindow)

	var probs []string
	bad := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}
	if shards > 1 && n.ShardCount() != shards {
		bad("requested %d shards but ran on %d (silent fallback)", shards, n.ShardCount())
	}
	sum := n.Summary()
	for _, p := range sum.AuditProblems {
		bad("conservation violation: %s", p)
	}

	inj := n.Faults
	counters := []struct {
		name string
		v    int64
	}{
		{"loss drops", inj.LossDrops()},
		{"down drops", inj.DownDrops()},
		{"data drops", inj.DataDrops()},
		{"down events", inj.DownEvents()},
		{"degrade events", inj.DegradeEvents()},
		{"total drops", inj.TotalDrops()},
		{"feedback drops", inj.FeedbackDropped()},
		{"feedback delays", inj.FeedbackDelayed()},
		{"feedback corruptions", inj.FeedbackCorrupted()},
		{"node crashes", inj.NodeCrashes()},
		{"node restarts", inj.NodeRestarts()},
		{"switch fails", inj.SwitchFails()},
		{"switch recovers", inj.SwitchRecovers()},
	}
	for _, ctr := range counters {
		if ctr.v < 0 {
			bad("negative injector counter: %s = %d", ctr.name, ctr.v)
		}
	}
	if got, want := inj.TotalDrops(), inj.LossDrops()+inj.DownDrops(); got != want {
		bad("total drops %d != loss %d + down %d", got, inj.LossDrops(), inj.DownDrops())
	}
	if inj.DataDrops() > inj.TotalDrops() {
		bad("data drops %d exceed total drops %d", inj.DataDrops(), inj.TotalDrops())
	}
	for _, ls := range plan.Events {
		if ls.Action == fault.LinkDown || ls.Action == fault.LinkUp {
			if inj.Down(ls.Link) {
				bad("link %q still down after its recovery event", ls.Link)
			}
		}
	}

	// Node faults: every scheduled event fired (the horizon ends well before
	// the drain), and — because the generator pairs every outage with a
	// recovery — no device is still down at run end.
	var planCrash, planRestart, planFail, planRecover int64
	for _, ne := range plan.Nodes {
		switch ne.Action {
		case fault.HostCrash:
			planCrash++
		case fault.HostRestart:
			planRestart++
		case fault.SwitchFail:
			planFail++
		case fault.SwitchRecover:
			planRecover++
		}
	}
	if inj.NodeCrashes() != planCrash || inj.NodeRestarts() != planRestart ||
		inj.SwitchFails() != planFail || inj.SwitchRecovers() != planRecover {
		bad("node-fault counters (%d,%d,%d,%d) != plan (%d,%d,%d,%d)",
			inj.NodeCrashes(), inj.NodeRestarts(), inj.SwitchFails(), inj.SwitchRecovers(),
			planCrash, planRestart, planFail, planRecover)
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

	for id := 1; id <= n.Table.Len(); id++ {
		f := n.Table.Get(pkt.FlowID(id))
		if f.Done && f.Aborted {
			bad("flow %d both done and aborted", id)
		}
		if f.Done && f.RxBytes < f.Info.Size {
			bad("flow %d done with %d/%d bytes received", id, f.RxBytes, f.Info.Size)
		}
	}
	if sum.HostAborts != int64(sum.Aborted) {
		bad("host abort counters %d != aborted flows %d", sum.HostAborts, sum.Aborted)
	}
	if sum.WatchdogRecovers > sum.WatchdogDecays {
		bad("watchdog recovered %d halvings but only %d were applied", sum.WatchdogRecovers, sum.WatchdogDecays)
	}

	return runOutcome{digest: cellDigest(n), problems: probs}
}

// addFlows installs the fixed soak workload: two long cross-DC transfers in
// opposite directions, short intra-DC company, and (at two-DC scale) an extra
// cross flow plus a rack-crossing intra flow. Flow geometry is a pure
// function of the host count so both shard layouts schedule identical work.
func addFlows(n *topo.Network) {
	half := n.NumHosts() / 2
	n.AddFlow(0, half, 4<<20, sim.Millisecond)
	n.AddFlow(half+1, 1, 4<<20, sim.Millisecond)
	n.AddFlow(0, 1, 1<<20, sim.Millisecond)
	n.AddFlow(half, half+1, 1<<20, sim.Millisecond)
	if n.NumHosts() >= 8 {
		n.AddFlow(2, half+2, 2<<20, 2*sim.Millisecond)
		n.AddFlow(1, 3, 1<<20, 2*sim.Millisecond)
	}
}

// cellDigest is the run fingerprint the shard-equality gate compares: an
// FNV-1a fold of the event count, the final clock, every flow's terminal
// state in flow-ID order, and the injector's aggregate counters. Identical
// digests mean the sharded run executed the same simulation.
func cellDigest(n *topo.Network) uint64 {
	d := newDigest()
	d.add(n.Fired())
	d.add(uint64(n.Now()))
	d.add(uint64(n.Table.Len()))
	for id := 1; id <= n.Table.Len(); id++ {
		f := n.Table.Get(pkt.FlowID(id))
		d.add(uint64(f.Info.ID))
		var bits uint64
		if f.Done {
			bits |= 1
		}
		if f.Aborted {
			bits |= 2
		}
		d.add(bits)
		d.add(uint64(f.FinishAt))
		d.add(uint64(f.RxBytes))
	}
	inj := n.Faults
	d.add(uint64(inj.LossDrops()))
	d.add(uint64(inj.DownDrops()))
	d.add(uint64(inj.DataDrops()))
	d.add(uint64(inj.DownEvents()))
	d.add(uint64(inj.DegradeEvents()))
	d.add(uint64(inj.FeedbackDropped()))
	d.add(uint64(inj.FeedbackDelayed()))
	d.add(uint64(inj.FeedbackCorrupted()))
	d.add(uint64(inj.NodeCrashes()))
	d.add(uint64(inj.NodeRestarts()))
	d.add(uint64(inj.SwitchFails()))
	d.add(uint64(inj.SwitchRecovers()))
	return d.sum()
}

// digest is an incremental FNV-1a hash over uint64 words (the same fold
// internal/exp uses for determinism digests, kept local so the soak harness
// has no dependency on the experiment layer).
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) add(v uint64) {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		d.h = (d.h ^ (v & 0xff)) * prime
		v >>= 8
	}
}

func (d *digest) sum() uint64 { return d.h }
