package topo

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"mlcc/internal/audit"
	"mlcc/internal/fault"
	"mlcc/internal/guard"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// vacuousPlan arms the fault plane on the long haul without perturbing
// anything: a link-down far past any test's horizon and a loss rule that
// can never fire.
func vacuousPlan() *fault.Plan {
	return &fault.Plan{
		Seed:   99,
		Events: []fault.Event{{At: 10 * sim.Second, Link: "longhaul", Action: fault.LinkDown}},
		Loss:   []fault.LossRule{{Link: "longhaul", Prob: 0}},
	}
}

// TestVacuousFaultPlanSchedulesNothing pins that a fault plan which cannot
// fire costs the event loop nothing but its own scripted events: on the
// elephants shape (four cross-DC and four intra-DC MLCC flows on the
// default two-DC fabric) the engines fire exactly the events of the same run
// without a plan and push exactly its heap entries plus the plan's link-down,
// once per direction, still pending at the deadline. A corruption hook on a
// direction without a live loss rule would stop the long-haul ports
// deferring their completions.
func TestVacuousFaultPlanSchedulesNothing(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			run := func(plan *fault.Plan) (pushes, fired uint64) {
				p := testParams(AlgMLCC)
				p.Seed, p.Shards, p.Fault = 1, shards, plan
				n := TwoDC(p)
				leaves := n.P.LeavesPerDC
				for j := 0; j < 4; j++ {
					n.AddFlow(n.RackHost(1, j), n.RackHost(1+leaves, j), 1<<20, 0)
					n.AddFlow(n.RackHost(1+leaves, j), n.RackHost(2+leaves, j), 1<<20, 0)
				}
				n.Run(15 * sim.Millisecond)
				if !n.Drained() {
					t.Fatal("network not drained at 15 ms")
				}
				for _, e := range n.Engines {
					pushes += e.EventAllocs() + e.EventRecycles()
				}
				return pushes, n.Fired()
			}
			offPushes, offFired := run(nil)
			onPushes, onFired := run(vacuousPlan())
			if onPushes != offPushes+2 || onFired != offFired {
				t.Fatalf("vacuous plan: %d heap pushes, %d events; no plan: %d (+2 scripted), %d", onPushes, onFired, offPushes, offFired)
			}
		})
	}
}

// TestPlanesBuildAllocs is the set-up ratchet for the planes: a default
// two-DC build with the metrics registry, the audit ledger, the guard and a
// vacuous fault plan attached. Each device registers once, as a source the
// registry reads when asked, so the registry builds no instrument name or
// accessor closure; the vacuous plan seeds no PRNG, the audit pass names
// cables without a per-port map and binds one drop hook per ledger, and the
// guard keeps its port states and sample rings in one array each. One more
// allocation per instrument (937 of them) or per port would overshoot the
// ceiling by hundreds. The ceiling is the build's count (2 956 with one
// registration per instrument, 4 482 with a name-keyed registry map); lower
// it when a change lowers the count. Device rows build no strings, so each
// name a plane needs is built once, when asked (1 092 when every row carried
// its name and registry prefix); seven of the count are MLCC's two
// signal-age histograms and their sender wrapper.
func TestPlanesBuildAllocs(t *testing.T) {
	const ceiling = 1008
	// Ten builds, so a stray runtime allocation (the race detector makes
	// some) rounds away.
	allocs := testing.AllocsPerRun(10, func() {
		p := testParams(AlgMLCC)
		p.Telemetry = metrics.New(metrics.Options{Metrics: true})
		p.Audit = audit.New()
		p.Guard = &guard.Config{}
		p.Fault = vacuousPlan()
		TwoDC(p)
	})
	if allocs > ceiling {
		t.Fatalf("planes-on TwoDC build: %.0f allocations, ceiling %d", allocs, ceiling)
	}
}

// TestBuildAllocs is the set-up ratchet of the figure path: a planes-off
// build of the 256-host two-DC fabric the paper's figure cells run on. A
// device row holds no name, no registry prefix and, on a host, no port list
// of its own, so nothing here grows by even one allocation per host (4 198
// when each host row carried two strings and a port slice). The ceiling is
// the build's count; lower it when a change lowers the count.
func TestBuildAllocs(t *testing.T) {
	const ceiling = 3233
	allocs := testing.AllocsPerRun(10, func() {
		p := testParams(AlgMLCC)
		p.HostsPerLeaf = 32
		TwoDC(p)
	})
	if allocs > ceiling {
		t.Fatalf("planes-off 256-host TwoDC build: %.0f allocations, ceiling %d", allocs, ceiling)
	}
}

// TestLedgerRecordsByFlowID pins the ledger's flow-id indexing on a sharded
// run: each shard's ledger holds the halves of the flows whose hooks fired
// there, and their merge equals the single-engine ledger record for record.
func TestLedgerRecordsByFlowID(t *testing.T) {
	const flows = 8
	books := func(shards int) []audit.FlowRec {
		p := testParams(AlgMLCC)
		p.Seed, p.Shards, p.Audit = 1, shards, audit.New()
		n := TwoDC(p)
		leaves := n.P.LeavesPerDC
		for j := 0; j < flows/2; j++ {
			n.AddFlow(n.RackHost(1, j), n.RackHost(1+leaves, j), 256<<10, 0)
			n.AddFlow(n.RackHost(2+leaves, j), n.RackHost(1+leaves, j), 256<<10, 0)
		}
		n.Run(5 * sim.Millisecond)
		if probs := n.AuditProblems(); probs != nil {
			t.Fatalf("shards=%d: audit problems: %v", shards, probs)
		}
		led := n.Audit()
		if got := len(led.Flows()); got != flows {
			t.Fatalf("shards=%d: %d records, want %d", shards, got, flows)
		}
		var out []audit.FlowRec
		for id := 1; id <= flows; id++ {
			r := led.Flow(pkt.FlowID(id))
			if r == nil {
				t.Fatalf("shards=%d: no record of flow %d", shards, id)
			}
			out = append(out, *r)
		}
		return out
	}
	one, two := books(1), books(2)
	for i := range one {
		if one[i] != two[i] {
			t.Errorf("flow %d: merged shard books %+v, single engine %+v", i+1, two[i], one[i])
		}
	}
}

// TestRuntimeGaugesOnSharded pins the runtime gauges of a sharded build:
// the event loop's cancelled and same-instant shares, the window count,
// each shard's busy and barrier-wait seconds and each pool's high-water are
// in the snapshot, marked runtime, and a manifest files them under Runtime,
// never under Counters.
func TestRuntimeGaugesOnSharded(t *testing.T) {
	p := testParams(AlgMLCC)
	p.Seed, p.Shards = 1, 2
	p.Telemetry = metrics.New(metrics.Options{Metrics: true})
	n := TwoDC(p)
	n.AddFlow(n.RackHost(1, 0), n.RackHost(1+n.P.LeavesPerDC, 0), 256<<10, 0)
	n.Run(5 * sim.Millisecond)
	want := []string{"pkt.pool0.allocs", "pkt.pool1.allocs", "sim.cancelled_frac", "sim.same_instant_frac",
		"sim.shard0.busy_s", "sim.shard0.wait_s", "sim.shard1.busy_s", "sim.shard1.wait_s", "sim.windows"}
	var got []string
	for _, pt := range p.Telemetry.Registry().Snapshot() {
		if pt.Runtime {
			got = append(got, pt.Name)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("runtime gauges %v, want %v", got, want)
	}
	if v, _ := p.Telemetry.Registry().Value("sim.windows"); v != 2 {
		t.Errorf("sim.windows = %v after 5 ms of 3 ms windows, want 2", v)
	}
	m := metrics.NewManifest("test")
	m.AddCounters(p.Telemetry.Registry())
	for _, name := range want {
		if _, ok := m.Counters[name]; ok {
			t.Errorf("%s is among the manifest's counters", name)
		}
		if _, ok := m.Runtime[name]; !ok {
			t.Errorf("%s is missing from the manifest's runtime map", name)
		}
	}
}

// TestRegistryGrowsWithDevices pins what registering a network costs: one
// registry entry per device, so attaching the registry to a TwoDC build
// adds at most one allocation per device the build grows by — not one
// name and one closure per instrument, which grow with every host and
// every switch port.
func TestRegistryGrowsWithDevices(t *testing.T) {
	regAllocs := func(hostsPerLeaf int) (allocs float64, devices int) {
		build := func(reg bool) float64 {
			return testing.AllocsPerRun(5, func() {
				p := testParams(AlgMLCC)
				p.HostsPerLeaf = hostsPerLeaf
				if reg {
					p.Telemetry = metrics.New(metrics.Options{Metrics: true})
				}
				devices = len(TwoDC(p).devs)
			})
		}
		return build(true) - build(false), devices
	}
	small, smallDevs := regAllocs(8)
	large, largeDevs := regAllocs(32)
	if grown := large - small; grown > float64(largeDevs-smallDevs) {
		t.Fatalf("registry allocations: %.0f at %d devices, %.0f at %d; %.0f more for %d more devices",
			large, largeDevs, small, smallDevs, grown, largeDevs-smallDevs)
	}
}

// TestRegistryVocabulary pins every instrument name, kind and runtime flag
// of the benchmark's elephants_planes network (the default two-DC fabric
// with every plane attached): 937 entries with the hash they had when each
// instrument registered on its own, plus the event loop's two runtime
// shares and MLCC's two signal-age histograms (five points each) added
// since.
func TestRegistryVocabulary(t *testing.T) {
	p := testParams(AlgMLCC)
	p.Seed = 1
	p.Telemetry = metrics.New(metrics.Options{Metrics: true, FlightRecorderSize: 1 << 10})
	p.Audit = audit.New()
	p.Guard = &guard.Config{}
	p.Fault = vacuousPlan()
	TwoDC(p)
	h := fnv.New64a()
	n, loop, ages := 0, 0, 0
	for _, pt := range p.Telemetry.Registry().Snapshot() {
		switch {
		case pt.Name == "sim.cancelled_frac" || pt.Name == "sim.same_instant_frac":
			loop++
			continue
		case strings.HasPrefix(pt.Name, "cc.mlcc.ack_age_ns.") || strings.HasPrefix(pt.Name, "cc.mlcc.sint_age_ns."):
			ages++
			continue
		}
		fmt.Fprintf(h, "%s\t%s\t%v\n", pt.Name, pt.Kind, pt.Runtime)
		n++
	}
	if n != 937 || h.Sum64() != 0x7b393a21967f91c1 || loop != 2 || ages != 10 {
		t.Fatalf("%d instruments hashing to %#x, %d event-loop shares and %d signal-age points; want 937, 0x7b393a21967f91c1, 2 and 10",
			n, h.Sum64(), loop, ages)
	}
}

// TestDCIRateRecordedOnChange pins that a DCI flight-records a flow's PFQ
// rate only when a credit round changes it: on the elephants shape no DCI
// rate event repeats the flow's previous rate, and none repeats the initial
// rate, which (unlike a host's first rate) is not logged.
func TestDCIRateRecordedOnChange(t *testing.T) {
	p := testParams(AlgMLCC)
	p.Seed = 1
	p.Telemetry = metrics.New(metrics.Options{FlightRecorderSize: 1 << 16})
	n := TwoDC(p)
	leaves := n.P.LeavesPerDC
	for j := 0; j < 4; j++ {
		n.AddFlow(n.RackHost(1, j), n.RackHost(1+leaves, j), 1<<20, 0)
		n.AddFlow(n.RackHost(1+leaves, j), n.RackHost(2+leaves, j), 1<<20, 0)
	}
	n.Run(15 * sim.Millisecond)
	type key struct {
		node int16
		flow int32
	}
	last := make(map[key]int64)
	var events, repeats int
	for _, e := range p.Telemetry.FlightEvents() {
		if e.Kind != metrics.EvRateUpdate || e.Node < int16(n.DCIs[0].ID()) { // the DCIs are the last rows
			continue
		}
		events++
		k := key{e.Node, e.Flow}
		v, ok := last[k]
		if !ok {
			v = int64(n.P.HostRate) // the PFQ's initial rate is not logged
		}
		if v == e.Val {
			repeats++
		}
		last[k] = e.Val
	}
	if events == 0 || repeats != 0 {
		t.Fatalf("%d of %d DCI rate events repeat their flow's previous rate, want 0 of at least 1", repeats, events)
	}
}

// TestSignalAgeByLoop writes down the paper's thesis as two medians on a
// small cross-DC cell: eight 16 MiB flows from two racks of DC 0 to DC 1,
// 200 Gbps offered to the 100 Gbps long haul. The age of the signal a rate
// cut acted on is O(intra-DC RTT) on MLCC's Switch-INT loop and
// O(cross-DC RTT) on HPCC's ACK loop (6.045 ms base here). Medians are
// bucket bounds (the registry's histograms are log2), clipped at the max.
// The sharded build must see the same histograms: each shard writes its
// own part and a read merges them.
func TestSignalAgeByLoop(t *testing.T) {
	type median struct{ count, p50 float64 }
	ages := func(alg string, shards int) map[string]median {
		p := testParams(alg)
		p.Seed, p.Shards = 1, shards
		p.Telemetry = metrics.New(metrics.Options{Metrics: true})
		n := TwoDC(p)
		leaves := n.P.LeavesPerDC
		for rack := 1; rack <= 2; rack++ {
			for j := 0; j < 4; j++ {
				n.AddFlow(n.RackHost(rack, j), n.RackHost(rack+leaves, j), 16<<20, 0)
			}
		}
		n.Run(40 * sim.Millisecond)
		if !n.Drained() {
			t.Fatalf("%s: network not drained at 40 ms", alg)
		}
		out := map[string]median{}
		for _, pt := range p.Telemetry.Registry().Snapshot() {
			name, stat, _ := strings.Cut(pt.Name, "_age_ns.")
			m := out[name]
			switch stat {
			case "count":
				m.count = pt.Value
			case "p50":
				m.p50 = pt.Value
			default:
				continue
			}
			out[name] = m
		}
		return out
	}
	want := map[string]map[string]median{
		AlgMLCC: {"cc.mlcc.sint": {64916, 21355}, "cc.mlcc.ack": {}}, // cross-DC MLCC ACKs carry only R̄_DQM
		AlgHPCC: {"cc.hpcc.ack": {45672, 10823466}},
	}
	for _, alg := range []string{AlgMLCC, AlgHPCC} {
		for _, shards := range []int{1, 2} {
			got := ages(alg, shards)
			for name, m := range got {
				t.Logf("%s, %d shard(s): %.0f rate cuts, median signal age %.1f µs", name, shards, m.count, m.p50/1e3)
			}
			if fmt.Sprint(got) != fmt.Sprint(want[alg]) {
				t.Errorf("%s, %d shard(s): signal ages (count, median ns) %v, want %v", alg, shards, got, want[alg])
			}
		}
	}
}
