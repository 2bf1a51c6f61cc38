package topo

import (
	"math"
	"strings"
	"testing"

	"mlcc/internal/fault"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

func testParams(alg string) Params {
	return DefaultParams().WithAlgorithm(alg)
}

func TestRTTFormulas(t *testing.T) {
	n := TwoDC(testParams(AlgMLCC))
	// Same rack: ~4.7 µs.
	rtt := n.baseRTT(0, 1)
	if rtt < 4*sim.Microsecond || rtt > 6*sim.Microsecond {
		t.Errorf("same-rack RTT = %v", rtt)
	}
	// Different rack, same DC: ~25 µs.
	rtt = n.baseRTT(0, 4)
	if rtt < 24*sim.Microsecond || rtt > 27*sim.Microsecond {
		t.Errorf("intra-DC RTT = %v", rtt)
	}
	// Cross DC: ~6.05 ms.
	rtt = n.crossRTT()
	if rtt < 6*sim.Millisecond || rtt > 6200*sim.Microsecond {
		t.Errorf("cross-DC RTT = %v", rtt)
	}
	// Near-source loop: ~23 µs.
	if nr := n.nearRTT(0); nr < 20*sim.Microsecond || nr > 26*sim.Microsecond {
		t.Errorf("near RTT = %v", nr)
	}
}

// TestNodeNameFaultNamespace pins the negative node-ID convention: flight-
// recorder events emitted by the fault layer carry fault.FaultNodeID(idx)
// (the -1-idx namespace) and render as "fault:<link>", never aliasing a real
// host or switch; ids outside any injected link's range keep the generic
// fallback.
func TestNodeNameFaultNamespace(t *testing.T) {
	p := testParams(AlgMLCC)
	p.Fault = &fault.Plan{
		Seed: 1,
		Loss: []fault.LossRule{{Link: "longhaul", Prob: 0.5}},
	}
	n := TwoDC(p)
	if got := n.NodeName(int32(fault.FaultNodeID(0))); got != "fault:longhaul" {
		t.Errorf("NodeName(FaultNodeID(0)) = %q, want %q", got, "fault:longhaul")
	}
	if got := n.NodeName(int32(fault.FaultNodeID(5))); got != "node-6" {
		t.Errorf("NodeName(FaultNodeID(5)) = %q, want generic fallback %q", got, "node-6")
	}
	if got := n.NodeName(1); got != "host0" {
		t.Errorf("NodeName(1) = %q, want %q (positive ids untouched)", got, "host0")
	}
	// Without a plan there is no injector; negative ids must still be safe.
	bare := TwoDC(testParams(AlgMLCC))
	if got := bare.NodeName(-1); got != "node-1" {
		t.Errorf("NodeName(-1) without faults = %q, want %q", got, "node-1")
	}
}

func TestTopologyShape(t *testing.T) {
	n := TwoDC(testParams(AlgMLCC))
	if n.NumHosts() != 32 || n.HostsPerDC != 16 {
		t.Fatalf("hosts = %d/%d", n.NumHosts(), n.HostsPerDC)
	}
	if len(n.Leaves) != 8 || len(n.Spines) != 4 || len(n.DCIs) != 2 {
		t.Fatalf("switches = %d leaves %d spines %d DCIs", len(n.Leaves), len(n.Spines), len(n.DCIs))
	}
	if n.Rack(n.RackHost(5, 0)) != 4 {
		t.Fatal("rack numbering broken")
	}
	if !n.CrossDC(0, 16) || n.CrossDC(0, 15) {
		t.Fatal("DC split broken")
	}
	if n.P.DQM.RTTc != n.crossRTT() || n.P.DQM.RTTd != n.farRTT(0) {
		t.Fatal("DQM RTTs not filled from topology")
	}
}

// runSingleFlow transfers size bytes between two hosts and returns the FCT.
func runSingleFlow(t *testing.T, alg string, src, dst int, size int64) sim.Time {
	t.Helper()
	n := TwoDC(testParams(alg))
	f := n.AddFlow(src, dst, size, sim.Millisecond)
	n.Run(200 * sim.Millisecond)
	if !f.Done {
		t.Fatalf("%s: flow %d->%d (%dB) did not complete; rx=%d/%d",
			alg, src, dst, size, n.Hosts[dst].ReceivedBytes(f.Info.ID), size)
	}
	return f.FCT()
}

func TestSingleIntraFlowAllAlgorithms(t *testing.T) {
	const size = 1 << 20 // 1 MB
	ideal := sim.TxTime(size, 25*sim.Gbps)
	for _, alg := range Algorithms() {
		fct := runSingleFlow(t, alg, 0, 4, size)
		if fct < ideal {
			t.Errorf("%s: FCT %v below ideal %v", alg, fct, ideal)
		}
		if fct > 3*ideal {
			t.Errorf("%s: FCT %v exceeds 3x ideal %v — uncongested flow throttled", alg, fct, ideal)
		}
	}
}

func TestSingleCrossFlowAllAlgorithms(t *testing.T) {
	const size = 4 << 20                   // 4 MB
	ideal := sim.TxTime(size, 25*sim.Gbps) // 1.34 ms
	for _, alg := range Algorithms() {
		fct := runSingleFlow(t, alg, 0, 16, size)
		// Cross flows pay at least ~1 RTT_C of latency on top.
		if fct < ideal {
			t.Errorf("%s: cross FCT %v below ideal %v", alg, fct, ideal)
		}
		if fct > ideal+30*sim.Millisecond {
			t.Errorf("%s: cross FCT %v way beyond ideal %v", alg, fct, ideal)
		}
	}
}

func TestSameRackFlow(t *testing.T) {
	fct := runSingleFlow(t, AlgMLCC, 8, 9, 100<<10)
	if fct > sim.Millisecond {
		t.Errorf("same-rack 100KB FCT = %v", fct)
	}
}

func TestAllPairsReachability(t *testing.T) {
	// Small flows between representative pairs, all must complete.
	n := TwoDC(testParams(AlgMLCC))
	pairs := [][2]int{{0, 1}, {0, 5}, {0, 31}, {31, 0}, {16, 20}, {15, 16}, {7, 29}, {12, 3}}
	var flows []int
	for i, pr := range pairs {
		f := n.AddFlow(pr[0], pr[1], 20<<10, sim.Time(i)*100*sim.Microsecond)
		flows = append(flows, i)
		_ = f
	}
	n.Run(100 * sim.Millisecond)
	for _, f := range n.Table.All() {
		if !f.Done {
			t.Errorf("flow %d (%d->%d) incomplete", f.Info.ID, f.Info.Src, f.Info.Dst)
		}
	}
	_ = flows
}

func TestTwoFlowsShareHostLink(t *testing.T) {
	// Two senders to the same destination host: the 25G host link is the
	// bottleneck; both flows should finish in roughly 2x the solo time.
	n := TwoDC(testParams(AlgMLCC))
	const size = 2 << 20
	f1 := n.AddFlow(0, 4, size, sim.Millisecond)
	f2 := n.AddFlow(1, 4, size, sim.Millisecond)
	n.Run(100 * sim.Millisecond)
	if !f1.Done || !f2.Done {
		t.Fatal("flows incomplete")
	}
	solo := sim.TxTime(size, 25*sim.Gbps)
	for _, f := range []any{f1, f2} {
		_ = f
	}
	if f1.FCT() < solo || f2.FCT() < solo {
		t.Errorf("FCTs %v/%v below solo %v despite sharing", f1.FCT(), f2.FCT(), solo)
	}
	if f1.FCT() > 4*solo || f2.FCT() > 4*solo {
		t.Errorf("FCTs %v/%v too slow (solo %v)", f1.FCT(), f2.FCT(), solo)
	}
}

func TestDumbbellAllAlgorithms(t *testing.T) {
	for _, alg := range Algorithms() {
		p := DefaultParams().WithAlgorithm(alg)
		p.HostRate = 100 * sim.Gbps
		p.HostsPerLeaf = 2
		n := Dumbbell(p)
		if n.NumHosts() != 4 {
			t.Fatalf("dumbbell hosts = %d", n.NumHosts())
		}
		f := n.AddFlow(0, 2, 1<<20, sim.Millisecond)
		fl := n.AddFlow(1, 3, 1<<20, sim.Millisecond)
		n.Run(100 * sim.Millisecond)
		if !f.Done || !fl.Done {
			t.Errorf("%s: dumbbell flows incomplete (done=%v,%v)", alg, f.Done, fl.Done)
		}
	}
}

func TestMLCCCrossFlowUsesDCIMachinery(t *testing.T) {
	n := TwoDC(testParams(AlgMLCC))
	f := n.AddFlow(0, 16, 4<<20, sim.Millisecond)
	n.Run(100 * sim.Millisecond)
	if !f.Done {
		t.Fatal("flow incomplete")
	}
	if n.DCIs[0].SwitchINTSent == 0 {
		t.Error("sender-side DCI sent no Switch-INT feedback")
	}
	if n.DCIs[1].PFQFlows == 0 {
		t.Error("receiver-side DCI allocated no PFQ")
	}
	if n.DCIs[1].DQMUpdates == 0 {
		t.Error("DQM never updated")
	}
	if n.DCIs[1].ActivePFQs() != 0 {
		t.Errorf("PFQ not garbage-collected: %d live", n.DCIs[1].ActivePFQs())
	}
}

func TestMLCCIntraFlowSkipsDCI(t *testing.T) {
	n := TwoDC(testParams(AlgMLCC))
	f := n.AddFlow(0, 4, 1<<20, sim.Millisecond)
	n.Run(50 * sim.Millisecond)
	if !f.Done {
		t.Fatal("flow incomplete")
	}
	if n.DCIs[0].SwitchINTSent != 0 || n.DCIs[1].PFQFlows != 0 {
		t.Error("intra-DC flow touched DCI machinery")
	}
}

func TestUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultParams().WithAlgorithm("bogus")
}

// TestMTUOutOfRangePanics: Packet.Size is an int32, so the network build
// refuses an MTU no frame could carry, instead of checking every packet.
func TestMTUOutOfRangePanics(t *testing.T) {
	for _, mtu := range []int{0, -1, math.MaxInt32 + 1} {
		p := testParams("mlcc")
		p.mtu = mtu
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "MTU") {
					t.Errorf("MTU %d: panic %q, want one naming the MTU", mtu, msg)
				}
			}()
			TwoDC(p)
		}()
	}
	p := testParams("mlcc")
	p.mtu = math.MaxInt32
	Dumbbell(p) // the widest int32 MTU builds
}

// TestShapeBounds: a flight record's Node is an int16 and its Port an int8,
// so the build refuses a DC of more than maxSwitchesPerDC leaves or spines
// and a leaf of more than maxLeafPorts ports, hosts plus uplinks, instead of
// recording a wrapped id. The dumbbell's one uplink counts.
func TestShapeBounds(t *testing.T) {
	mustPanic := func(p Params, want string) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, want) {
				t.Errorf("%d spines, %d leaves, %d hosts per leaf: panic %q, want %q", p.SpinesPerDC, p.LeavesPerDC, p.HostsPerLeaf, msg, want)
			}
		}()
		TwoDC(p)
	}
	for _, spines := range []int{2, 0} {
		p := testParams(AlgMLCC)
		p.LeavesPerDC, p.SpinesPerDC, p.HostsPerLeaf = 1, spines, maxLeafPorts-max(spines, 1)
		if got := TwoDC(p).Leaves[0].NumPorts(); got != maxLeafPorts {
			t.Errorf("%d spines: leaf has %d ports, want %d", spines, got, maxLeafPorts)
		}
		p.HostsPerLeaf++
		mustPanic(p, "exceed a leaf's 128 ports")
	}
	p := testParams(AlgMLCC)
	p.SpinesPerDC = maxSwitchesPerDC + 1
	mustPanic(p, "exceed 50")
}

// TestLargestShapeIDsFit pins that CheckShape's largest accepted shape — 2 ×
// 50 leaves of 127 hosts under one spine per DC, the most devices the caps
// allow — numbers its last device, the second DCI, len(devs), and that the
// last row's id round-trips through pkt.NodeID and fits the flight record's
// int16 node.
func TestLargestShapeIDsFit(t *testing.T) {
	p := testParams(AlgMLCC)
	p.SpinesPerDC, p.LeavesPerDC, p.HostsPerLeaf = 1, maxSwitchesPerDC, maxLeafPorts-1
	if err := CheckShape(p.SpinesPerDC, p.LeavesPerDC, p.HostsPerLeaf); err != nil {
		t.Fatal(err)
	}
	n := TwoDC(p)
	rows := len(n.devs)
	if last := int(n.DCIs[1].ID()); last != rows || int(pkt.NodeID(rows)) != rows || rows > math.MaxInt16 {
		t.Fatalf("last device id %d over %d rows (%d as a pkt.NodeID), want the row count, unchanged, and at most %d",
			last, rows, pkt.NodeID(rows), math.MaxInt16)
	}
}

func TestAblationVariantsRun(t *testing.T) {
	for _, alg := range AblationAlgorithms() {
		n := TwoDC(DefaultParams().WithAlgorithm(alg))
		f := n.AddFlow(0, 16, 2<<20, sim.Millisecond)
		n.Run(100 * sim.Millisecond)
		if !f.Done {
			t.Errorf("%s: cross flow incomplete", alg)
		}
		// Ablations still use the MLCC DCI machinery.
		if n.DCIs[1].PFQFlows == 0 {
			t.Errorf("%s: PFQ not used", alg)
		}
	}
}

func TestLongHaulDelayOverride(t *testing.T) {
	p := testParams(AlgMLCC)
	p.LongHaulDelay = sim.Millisecond
	n := TwoDC(p)
	rtt := n.crossRTT()
	if rtt < 2*sim.Millisecond || rtt > 2100*sim.Microsecond {
		t.Fatalf("cross RTT with 1ms haul = %v", rtt)
	}
	if n.P.DQM.RTTc != rtt {
		t.Fatal("DQM RTTc not updated for the override")
	}
}

func TestPerHostBisection(t *testing.T) {
	p := testParams(AlgMLCC)
	n := TwoDC(p)
	// 4 hosts/leaf, 2×100G uplinks: share is 50G, capped at the 25G NIC.
	if got := n.PerHostBisection(); got != 25*sim.Gbps {
		t.Fatalf("bisection share = %v", got)
	}
	p.HostsPerLeaf = 32
	n2 := TwoDC(p)
	// 32 hosts/leaf: 200G/32 = 6.25G per host.
	if got := n2.PerHostBisection(); got != 6250*sim.Mbps {
		t.Fatalf("bisection share at 4:1 = %v", got)
	}
	// Without spines a leaf's one DCI uplink is the shared capacity: 100G/8.
	p.SpinesPerDC, p.LeavesPerDC, p.HostsPerLeaf = 0, 2, 8
	if got := TwoDC(p).PerHostBisection(); got != 12500*sim.Mbps {
		t.Fatalf("spineless bisection share = %v", got)
	}
	// The dumbbell's intra-DC pairs share a ToR: the NIC rate.
	p.HostRate = 100 * sim.Gbps
	if got := Dumbbell(p).PerHostBisection(); got != p.HostRate {
		t.Fatalf("dumbbell bisection share = %v", got)
	}
}

func TestMLCCDeterministicAcrossRuns(t *testing.T) {
	run := func() sim.Time {
		n := TwoDC(testParams(AlgMLCC))
		f := n.AddFlow(0, 20, 3<<20, sim.Millisecond)
		g := n.AddFlow(1, 20, 3<<20, sim.Millisecond)
		n.Run(120 * sim.Millisecond)
		if !f.Done || !g.Done {
			t.Fatal("flows incomplete")
		}
		return f.FCT() + g.FCT()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic FCTs: %v vs %v", a, b)
	}
}

// TestTwoDCBuildScalesLinearly pins set-up cost linear in devices: doubling
// a TwoDC's leaves, and so its hosts, about doubles the allocations of its
// build; anything allocated per (switch, destination) would make them
// quadruple. Route tables are sized by racks: at a fixed rack count, eight
// times the hosts leave every spine's and DCI's table as long as it was and
// lengthen a leaf's by its own new hosts alone.
func TestTwoDCBuildScalesLinearly(t *testing.T) {
	allocs := func(leavesPerDC int) float64 {
		p := testParams(AlgMLCC)
		p.LeavesPerDC, p.HostsPerLeaf = leavesPerDC, 32
		return testing.AllocsPerRun(1, func() { TwoDC(p) })
	}
	a1k, a2k := allocs(16), allocs(32) // 1 024 and 2 048 hosts
	if a2k > 2.2*a1k {
		t.Fatalf("TwoDC allocations: %.0f at 2 048 hosts, %.0f at 1 024 (%.2f×, want ≤ 2.2×)", a2k, a1k, a2k/a1k)
	}

	build := func(hostsPerLeaf int) *Network {
		p := testParams(AlgMLCC)
		p.HostsPerLeaf = hostsPerLeaf
		return TwoDC(p)
	}
	small, large := build(4), build(32)
	for i, sw := range small.Switches() {
		want := sw.RouteTableLen()
		if i < len(small.Leaves) {
			want += 32 - 4
		}
		if got := large.Switches()[i].RouteTableLen(); got != want {
			t.Errorf("switch %d: %d route entries at 32 hosts per leaf, %d at 4; want %d", sw.ID(), got, sw.RouteTableLen(), want)
		}
	}
}
