package topo

import (
	"strings"
	"testing"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// TestFailuresHoldIdealFCTAndLinkCapacity runs two flows clean, then feeds
// the gate a flow that finished faster than its ideal and a port past its
// line rate, each first exactly at its bound, which passes, then one past
// it, which fails.
func TestFailuresHoldIdealFCTAndLinkCapacity(t *testing.T) {
	n := TwoDC(testParams(AlgMLCC))
	const size = 100 << 10
	n.AddFlow(0, 5, size, 0)  // rack 0 → rack 1 through a spine
	n.AddFlow(0, 16, size, 0) // across the long haul
	n.Run(200 * sim.Millisecond)
	gate := func() []string {
		sum := n.Summary()
		return sum.Failures(false)
	}
	if fails := gate(); n.Table.Get(1).FCT() == 0 || n.Table.Get(2).FCT() == 0 || len(fails) > 0 {
		t.Fatalf("clean run: FCTs %v and %v, failures %q", n.Table.Get(1).FCT(), n.Table.Get(2).FCT(), fails)
	}
	// host → leaf → spine → leaf → host: 1 + 5 + 5 + 1 µs, then 100 KiB at 25 Gb/s.
	if got, want := n.idealFCT(n.Table.Get(1)), 12*sim.Microsecond+sim.TxTime(size, 25*sim.Gbps); got != want {
		t.Fatalf("intra-DC ideal FCT %v, want %v", got, want)
	}

	check := func(what string, fails []string, want string) {
		t.Helper()
		if want == "" && len(fails) > 0 || want != "" && (len(fails) != 1 || !strings.HasPrefix(fails[0], want)) {
			t.Errorf("%s: failures %q, want %q", what, fails, want)
		}
	}
	f := n.Table.Get(2)
	finish, ideal := f.FinishAt, n.idealFCT(f)
	f.FinishAt = f.Start + ideal
	check("cross-DC flow at its ideal FCT", gate(), "")
	f.FinishAt--
	check("cross-DC flow 1 ps under its ideal FCT", gate(), "ideal FCT: flow 2 ")
	f.FinishAt = finish

	nic := n.Hosts[0].Port()
	nic.TxBytes = sim.BDPBytes(nic.Rate, n.Now()) + pkt.DefaultMTU
	check("host0 NIC at its limit", gate(), "")
	nic.TxBytes++
	check("host0 NIC 1 B over its limit", gate(), "link capacity: host0 port 0 ")
}
