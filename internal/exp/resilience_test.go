package exp

import (
	"testing"

	"mlcc/internal/audit"
	"mlcc/internal/fault"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
	"mlcc/internal/topo"
)

// conservationFlapCell cuts the dumbbell long haul mid-run, restores it,
// degrades it and runs a lossy window, then drains to quiescence.
var conservationFlapCell = cell{
	name: "conservation-flap",
	config: func(Config) spec.Config {
		c := testbed(500*sim.Microsecond, 300*sim.Millisecond)
		c.Fault = &fault.Plan{
			Seed: 42,
			Events: []fault.Event{
				{At: 2 * sim.Millisecond, Link: "longhaul", Action: fault.LinkDown},
				{At: 3 * sim.Millisecond, Link: "longhaul", Action: fault.LinkUp},
				{At: 5 * sim.Millisecond, Link: "longhaul", Action: fault.Degrade,
					RateFactor: 0.25, ExtraDelay: 200 * sim.Microsecond, Jitter: 20 * sim.Microsecond},
				{At: 8 * sim.Millisecond, Link: "longhaul", Action: fault.Restore},
			},
			Loss: []fault.LossRule{
				{Link: "longhaul", Prob: 5e-4, Start: 9 * sim.Millisecond, End: 14 * sim.Millisecond},
			},
		}
		return c
	},
	place: func(o *outcome) error {
		o.n.AddFlow(0, 2, 8<<20, sim.Millisecond)
		o.n.AddFlow(3, 1, 8<<20, sim.Millisecond)
		o.n.AddFlow(0, 1, 2<<20, sim.Millisecond)
		return nil
	},
}

// conservationAbortCell blackholes the long haul past the cross flow's
// retransmission budget (flow 1, group "cross"), then restores it so the
// parked queue drains; flow 2 (group "intra") never touches the cut.
var conservationAbortCell = cell{
	name: "conservation-abort", abortsExpected: true,
	config: func(Config) spec.Config {
		c := testbed(100*sim.Microsecond, 300*sim.Millisecond)
		c.RTOMax, c.MaxRetrans = 2*sim.Millisecond, 3
		c.DisablePFC = true // lossless backpressure would park the sender instead
		c.Fault = &fault.Plan{
			Seed: 7,
			Events: []fault.Event{
				{At: 2 * sim.Millisecond, Link: "longhaul", Action: fault.LinkDown},
				{At: 40 * sim.Millisecond, Link: "longhaul", Action: fault.LinkUp},
			},
		}
		return c
	},
	place: func(o *outcome) error {
		o.addGroupFlow("cross", 0, 2, 16<<20, sim.Millisecond)
		o.addGroupFlow("intra", 2, 3, 2<<20, sim.Millisecond)
		return nil
	},
}

// runTestCell runs one algorithm under a test-local matrix cell at seed 1.
func runTestCell(t *testing.T, c *cell, alg string, shards int) *outcome {
	t.Helper()
	o, err := c.run(alg, Config{Seed: 1, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// accountPackets checks the data-frame conservation equation on a drained
// network: every data frame a host ever transmitted was delivered to a host,
// dropped at switch admission, or destroyed by the fault layer (the ledger's
// Corrupt and Down fates) — and every pooled packet is back in the pool. A
// leak in any fault path (pipe flush, mid-serialization cut, corruption
// discard, abort teardown) fails here.
func accountPackets(t *testing.T, o *outcome) {
	t.Helper()
	n := o.n
	var sent, recv, faultData int64
	for _, h := range n.Hosts {
		sent += h.SentData
		recv += h.RecvData
	}
	for _, r := range n.Audit().Flows() {
		faultData += r.Fates[audit.Corrupt].Pkts + r.Fates[audit.Down].Pkts
	}
	swDrops := o.sum.Drops
	if sent != recv+swDrops+faultData {
		t.Errorf("data frames unaccounted: sent=%d != recv=%d + switchDrops=%d + faultDrops=%d (missing %d)",
			sent, recv, swDrops, faultData, sent-recv-swDrops-faultData)
	}
	if !n.Drained() {
		t.Error("packet pool leak: packets still checked out at quiescence")
	}
}

// TestFaultConservationFlap runs the flap cell, then audits packet
// conservation. Flows must complete (via go-back-N) despite the faults.
func TestFaultConservationFlap(t *testing.T) {
	for _, alg := range []string{topo.AlgMLCC, topo.AlgDCQCN} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			o := runTestCell(t, &conservationFlapCell, alg, 1)
			n := o.n

			for id := 1; id <= n.Table.Len(); id++ {
				f := n.Table.Get(pkt.FlowID(id))
				if !f.Done || f.Aborted {
					t.Errorf("flow %d: done=%v aborted=%v — should complete despite flap",
						id, f.Done, f.Aborted)
				}
			}
			if o.sum.FaultDrops == 0 {
				t.Error("flap destroyed no frames: fault plan did not engage")
			}
			if o.sum.Retransmits == 0 {
				t.Error("no retransmissions despite a 1 ms blackout of the long haul")
			}
			if fails := conservationFlapCell.gate(alg, &o.sum); len(fails) != 0 {
				t.Errorf("gate failures: %v", fails)
			}
			accountPackets(t, o)
		})
	}
}

// TestFaultConservationAbort runs the abort cell. The sender must abort; the
// stranded frames must still be fully accounted for.
func TestFaultConservationAbort(t *testing.T) {
	o := runTestCell(t, &conservationAbortCell, topo.AlgDCQCN, 1)
	n := o.n
	cross, intra := o.groups["cross"][0], o.groups["intra"][0]

	if !cross.Aborted {
		t.Errorf("cross flow survived a 38 ms blackout with MaxRetrans=3 (done=%v)", cross.Done)
	}
	if cross.AbortAt <= 2*sim.Millisecond || cross.AbortAt >= 40*sim.Millisecond {
		t.Errorf("abort at %v, want inside the blackout window (2 ms, 40 ms)", cross.AbortAt)
	}
	if !intra.Done || intra.Aborted {
		t.Errorf("intra flow: done=%v aborted=%v — must be untouched by the cut", intra.Done, intra.Aborted)
	}
	if got := n.Hosts[0].Aborted; got != 1 {
		t.Errorf("host 0 aborted-flow counter = %d, want 1", got)
	}
	if n.Hosts[0].ActiveSends() != 0 {
		t.Errorf("aborted flow still in the send list: ActiveSends = %d", n.Hosts[0].ActiveSends())
	}
	if fails := conservationAbortCell.gate(topo.AlgDCQCN, &o.sum); len(fails) != 0 {
		t.Errorf("gate failures: %v", fails)
	}
	accountPackets(t, o)
}
