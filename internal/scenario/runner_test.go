package scenario

import (
	"fmt"
	"testing"

	"mlcc/internal/audit"
	"mlcc/internal/fault"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
)

// smallParams is the 8-host two-DC build (2 spines, 2 leaves, 2 hosts/leaf
// per DC) the scenario tests run on.
func smallParams(alg string, seed int64, shards int) topo.Params {
	p := topo.DefaultParams()
	p.SpinesPerDC = 2
	p.LeavesPerDC = 2
	p.HostsPerLeaf = 2
	p.Seed = seed
	p.Shards = shards
	return p.WithAlgorithm(alg)
}

// runDigest folds the per-flow outcomes and collective statuses into one
// hash — the equality probe for shard invariance.
func runDigest(n *topo.Network, r *Runner) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime
			v >>= 8
		}
	}
	mix(n.Fired())
	mix(uint64(n.Now()))
	mix(uint64(n.Table.Len()))
	for id := 1; id <= n.Table.Len(); id++ {
		f := n.Table.Get(pkt.FlowID(id))
		mix(uint64(f.Info.ID))
		bits := uint64(0)
		if f.Done {
			bits |= 1
		}
		if f.Aborted {
			bits |= 2
		}
		mix(bits)
		mix(uint64(f.End()))
		mix(uint64(f.RxBytes))
	}
	for _, st := range r.Statuses() {
		mix(uint64(st.PhasesDone))
		bits := uint64(0)
		if st.Failed {
			bits |= 1
		}
		if st.Finished {
			bits |= 2
		}
		mix(bits)
		mix(uint64(st.FinishedAt))
	}
	return h
}

func TestBindExpandsOpenLoop(t *testing.T) {
	n := topo.TwoDC(smallParams("mlcc", 1, 0))
	p := &Plan{
		Seed: 1,
		Incasts: []Incast{
			{Name: "near", Dst: 0, FanIn: 3, Bytes: 4096, Waves: 2, Interval: 100 * sim.Microsecond},
			{Name: "far", Dst: 0, FanIn: 4, Bytes: 4096, Waves: 1, Cross: true},
		},
		Shuffles: []Shuffle{
			{Name: "shuffle", Workers: 4, Bytes: 2048, Start: sim.Millisecond, Stagger: 10 * sim.Microsecond},
		},
		Tenants: []Tenant{
			{Name: "web", Workload: "websearch", IntraLoad: 0.3, Duration: sim.Millisecond},
		},
	}
	r, err := Bind(p, n)
	if err != nil {
		t.Fatal(err)
	}
	flows := r.OpenLoop()
	if n.Table.Len() != len(flows) {
		t.Fatalf("registered %d flows, OpenLoop reports %d", n.Table.Len(), len(flows))
	}
	counts := map[string]int{}
	for _, fs := range flows {
		counts[fs.Tag]++
	}
	// near: 3 senders × 2 waves; far: 4 senders × 1; shuffle: 4×3 pairs.
	if counts["near"] != 6 || counts["far"] != 4 || counts["shuffle"] != 12 {
		t.Errorf("component counts %v", counts)
	}
	if counts["web"] == 0 {
		t.Error("tenant generated no flows")
	}
	for _, fs := range flows {
		switch fs.Tag {
		case "near":
			// Same-DC senders skipping dst 0: hosts 1..3.
			if fs.Src < 1 || fs.Src > 3 || fs.Dst != 0 || fs.Cross {
				t.Errorf("near flow %+v", fs)
			}
		case "far":
			// Opposite-DC senders: hosts 4..7.
			if fs.Src < 4 || fs.Src > 7 || fs.Dst != 0 || !fs.Cross {
				t.Errorf("far flow %+v", fs)
			}
		}
	}
	// Canonical merge order and tags visible through Tag().
	for i := 1; i < len(flows); i++ {
		a, b := flows[i-1], flows[i]
		if a.Start > b.Start {
			t.Fatalf("open-loop schedule out of order at %d: %v > %v", i, a.Start, b.Start)
		}
	}
	for id := 1; id <= n.Table.Len(); id++ {
		if r.Tag(pkt.FlowID(id)) == "" {
			t.Fatalf("flow %d has no tag", id)
		}
	}
	if r.Tag(pkt.FlowID(10_000)) != "" {
		t.Error("unknown flow tagged")
	}
	if !settled(r) {
		t.Error("plan without collectives must start settled")
	}
}

func TestBindRejectsOutOfRange(t *testing.T) {
	cases := map[string]*Plan{
		"too many workers": {Collectives: []Collective{{Name: "c", Workers: 10, Tensor: 1, Phases: 1}}},
		"explicit host":    {Shuffles: []Shuffle{{Name: "s", Hosts: []int{0, 99}, Bytes: 1}}},
		"incast dst":       {Incasts: []Incast{{Name: "i", Dst: 99, FanIn: 1, Bytes: 1, Waves: 1}}},
		"incast fan-in":    {Incasts: []Incast{{Name: "i", Dst: 0, FanIn: 4, Bytes: 1, Waves: 1}}},
		"invalid plan":     {},
	}
	for name, p := range cases {
		n := topo.TwoDC(smallParams("mlcc", 1, 0))
		if _, err := Bind(p, n); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCollectiveCompletes drives a two-phase ring to completion: every phase
// must run to its barrier, phases must not overlap, and the flow table must
// hold exactly workers×phases tensor flows, all tagged and done.
func TestCollectiveCompletes(t *testing.T) {
	n := topo.TwoDC(smallParams("mlcc", 1, 0))
	p := &Plan{
		Seed: 1,
		Collectives: []Collective{
			{Name: "ring", Workers: 4, Tensor: 64 << 10, Phases: 2, Gap: 5 * sim.Microsecond},
		},
	}
	r, err := Bind(p, n)
	if err != nil {
		t.Fatal(err)
	}
	if n.Table.Len() != 4 {
		t.Fatalf("phase 0 registered %d flows, want 4", n.Table.Len())
	}
	n.Run(100 * sim.Millisecond)
	if !settled(r) {
		t.Fatal("collective did not settle")
	}
	sts := r.Statuses()
	if len(sts) != 1 {
		t.Fatalf("statuses: %+v", sts)
	}
	st := sts[0]
	if st.Failed || !st.Finished || st.PhasesDone != 2 || st.FinishedAt <= 0 {
		t.Fatalf("status %+v", st)
	}
	if n.Table.Len() != 8 {
		t.Fatalf("table holds %d flows, want 4 workers × 2 phases", n.Table.Len())
	}
	var phase0End, phase1Start sim.Time
	for id := 1; id <= n.Table.Len(); id++ {
		f := n.Table.Get(pkt.FlowID(id))
		if !f.Done || f.Aborted {
			t.Fatalf("flow %d not completed: %+v", id, f)
		}
		if r.Tag(f.Info.ID) != "ring" {
			t.Fatalf("flow %d tag %q", id, r.Tag(f.Info.ID))
		}
		if id <= 4 {
			if f.FinishAt > phase0End {
				phase0End = f.FinishAt
			}
		} else if phase1Start == 0 || f.Start < phase1Start {
			phase1Start = f.Start
		}
	}
	// The barrier property: no phase-1 flow starts before the last phase-0
	// completion (the poll grid then adds up to one interval plus the gap).
	if phase1Start < phase0End {
		t.Errorf("phase 1 started at %v before phase 0 finished at %v", phase1Start, phase0End)
	}
	if slack := phase1Start - phase0End; slack > p.pollInterval()+p.Collectives[0].Gap {
		t.Errorf("barrier slack %v exceeds poll %v + gap %v", slack, p.pollInterval(), p.Collectives[0].Gap)
	}
}

// TestCollectiveShardInvariant is the tentpole's core invariant at package
// level: the closed-loop schedule must be byte-identical between shards=1
// and shards=2, with clean audit books on both.
func TestCollectiveShardInvariant(t *testing.T) {
	run := func(shards int) uint64 {
		params := smallParams("mlcc", 1, shards)
		params.Audit = audit.New()
		n := topo.TwoDC(params)
		plan, err := CanonicalPlan("collective", n.NumHosts(), 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Bind(plan, n)
		if err != nil {
			t.Fatal(err)
		}
		n.Run(100 * sim.Millisecond)
		if !settled(r) {
			t.Fatalf("shards=%d: collective did not settle: %+v", shards, r.Statuses())
		}
		if probs := n.AuditProblems(); len(probs) != 0 {
			t.Fatalf("shards=%d: audit problems: %v", shards, probs)
		}
		return runDigest(n, r)
	}
	d1 := run(1)
	d2 := run(2)
	if d1 != d2 {
		t.Fatalf("digest shards=1 %#016x != shards=2 %#016x", d1, d2)
	}
}

// TestCollectiveAbortFailsRing cuts the long haul under a cross-DC ring with
// a tight retransmission budget: the tensor flows abort, the collective must
// mark itself failed without launching another phase, and a same-fabric
// intra-DC tenant must ride through with its own books intact (the abort
// isolation half of the multi-tenant story, end to end). When the haul
// heals, the frames it held reach the ring's receivers: each tensor flow is
// then done as well as aborted, and counts once, as done.
func TestCollectiveAbortFailsRing(t *testing.T) {
	params := smallParams("mlcc", 1, 0)
	params.LongHaulDelay = 200 * sim.Microsecond
	params.MaxRetrans = 1
	params.RTOMax = 2 * sim.Millisecond
	params.Fault = &fault.Plan{Events: []fault.Event{
		{At: 100 * sim.Microsecond, Link: "longhaul", Action: fault.LinkDown},
		{At: 60 * sim.Millisecond, Link: "longhaul", Action: fault.LinkUp},
	}}
	n := topo.TwoDC(params)
	p := &Plan{
		Seed: 1,
		Collectives: []Collective{
			// Workers 0 and 4: both ring hops cross the severed haul.
			{Name: "ring", Workers: 2, Tensor: 256 << 10, Phases: 2, Gap: 5 * sim.Microsecond},
		},
		Tenants: []Tenant{
			{Name: "web", Workload: "websearch", IntraLoad: 0.2, Duration: 2 * sim.Millisecond},
		},
	}
	r, err := Bind(p, n)
	if err != nil {
		t.Fatal(err)
	}
	open := len(r.OpenLoop())
	if open == 0 {
		t.Fatal("tenant generated no flows")
	}
	// tenants folds the flow table by fate, as spec.Built.Run does.
	tenants := func() *stats.TenantSet {
		ts := stats.NewTenantSet()
		for _, f := range n.Table.All() {
			switch {
			case f.Done:
				ts.Add(r.Tag(f.Info.ID), stats.FCTSample{Size: f.Info.Size, FCT: f.FCT(), Cross: f.Info.CrossDC, Start: f.Start})
			case f.Aborted:
				ts.Abort(r.Tag(f.Info.ID))
			}
		}
		return ts
	}
	n.Run(50 * sim.Millisecond) // the haul is still down: isolation under the blackout
	ts := tenants()
	if got := ts.Aborts("ring"); got != 2 {
		t.Errorf("ring aborts = %d, want 2", got)
	}
	if got := ts.Aborts("web"); got != 0 {
		t.Errorf("tenant aborts = %d, want 0 (intra-DC traffic must ride through)", got)
	}
	if ts.Completed("web") == 0 {
		t.Error("tenant completed nothing")
	}
	if b := ts.CompletedBytes("ring"); b != 0 {
		t.Errorf("failed ring credited %d completed bytes", b)
	}

	n.Run(80 * sim.Millisecond)
	if !settled(r) {
		t.Fatal("failed collective did not settle")
	}
	st := r.Statuses()[0]
	if !st.Failed || st.Finished || st.PhasesDone != 0 {
		t.Fatalf("status %+v, want failed at phase 0", st)
	}
	if n.Table.Len() != open+2 {
		t.Fatalf("table holds %d flows, want %d open-loop + 2 ring (no phase past the failure)", n.Table.Len(), open+2)
	}

	ts = tenants()
	if got, done := ts.Aborts("ring"), ts.Completed("ring"); got != 0 || done != 2 {
		t.Errorf("healed ring: %d aborted, %d done; want its 2 flows done once the receivers have them", got, done)
	}
	if got := ts.Aborts("web"); got != 0 {
		t.Errorf("tenant aborts = %d after the heal, want 0", got)
	}
}

// TestLateAbortHoldsNoLaterBarrier drops every feedback frame to host0, so
// host0's ring flow completes at its receiver and its sender aborts later,
// after the barrier already passed on the receiver's completion. That late
// abort must not count toward a later phase: at every poll, no phase k+1
// flow may exist while a phase-k flow is neither Done nor Aborted.
func TestLateAbortHoldsNoLaterBarrier(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			params := smallParams("mlcc", 1, shards)
			params.LongHaulDelay = 200 * sim.Microsecond
			params.RTOMin = 100 * sim.Microsecond
			params.RTOMax = 400 * sim.Microsecond
			params.MaxRetrans = 1
			params.Fault = &fault.Plan{Seed: 1, Feedback: []fault.FeedbackRule{{Host: "host0", Drop: 1}}}
			n := topo.TwoDC(params)
			const workers = 2
			p := &Plan{
				Seed: 1,
				Collectives: []Collective{
					{Name: "ring", Workers: workers, Tensor: 1 << 20, Phases: 6, Gap: 5 * sim.Microsecond},
				},
			}
			if _, err := Bind(p, n); err != nil {
				t.Fatal(err)
			}
			// Registered after Bind, so it polls right after the barrier at the
			// same boundary. Flow IDs run phase by phase: flow id is in phase
			// (id-1)/workers, and every flow before the newest phase must be over.
			n.OnQuiescent(p.pollInterval(), func(now sim.Time) {
				for id := 1; id <= n.Table.Len()-workers; id++ {
					if f := n.Table.Get(pkt.FlowID(id)); !f.Done && !f.Aborted {
						t.Fatalf("at %v phase %d runs while flow %d of phase %d is still open",
							now, (n.Table.Len()-1)/workers, id, (id-1)/workers)
					}
				}
			})
			n.Run(200 * sim.Millisecond)
		})
	}
}

// TestTenantSubSeedIndependence: regenerating one tenant with a different
// neighbor set must not change its flows — each tenant draws from its own
// sub-seed stream.
func TestTenantSubSeedIndependence(t *testing.T) {
	gen := func(tenants []Tenant) []int64 {
		n := topo.TwoDC(smallParams("mlcc", 1, 0))
		p := &Plan{Seed: 5, Tenants: tenants}
		r, err := Bind(p, n)
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int64
		for _, fs := range r.OpenLoop() {
			if fs.Tag == "web" {
				sizes = append(sizes, fs.Size)
			}
		}
		return sizes
	}
	web := Tenant{Name: "web", Workload: "websearch", IntraLoad: 0.3, Duration: sim.Millisecond}
	batch := Tenant{Name: "batch", Workload: "hadoop", IntraLoad: 0.2, Duration: sim.Millisecond}
	solo := gen([]Tenant{web})
	mixed := gen([]Tenant{batch, web})
	if len(solo) == 0 || len(solo) != len(mixed) {
		t.Fatalf("web flows: solo %d, mixed %d", len(solo), len(mixed))
	}
	for i := range solo {
		if solo[i] != mixed[i] {
			t.Fatalf("web flow %d changed when batch joined: %d vs %d", i, solo[i], mixed[i])
		}
	}
}

// settled reports whether every collective of r has finished or failed.
func settled(r *Runner) bool {
	for _, cr := range r.colls {
		if !cr.finished && !cr.failed {
			return false
		}
	}
	return true
}
