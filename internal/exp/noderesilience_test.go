package exp

import (
	"testing"
)

// TestNodeResilienceAcceptance runs the node-resilience matrix (algorithms ×
// 4 node-fault cells) and pins the experiment's contract: every flow
// completes (crashed transfers resume from the acked prefix, switch blackouts
// ride through on go-back-N), the conservation books close with a failed
// switch draining its buffers into the ledger, the fault injector fires each
// scripted event exactly once, and the guard plane observes without ever
// halting a survivable run. Runs sharded (one engine per DC), exactly as
// `mlccfig -fig node-resilience` does — node-fault plans are shard-safe.
func TestNodeResilienceAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("20 dumbbell runs")
	}
	algs := shardTestAlgs(t)

	for i := range nodeResilienceFig.cells {
		ph := &nodeResilienceFig.cells[i]
		if ph.name == "pause-storm" {
			continue // pinned separately below: storm counts are summed across algorithms
		}
		for _, alg := range algs {
			alg := alg
			t.Run(ph.name+"/"+alg, func(t *testing.T) {
				t.Parallel()
				o, fails := runCell(t, ph, alg, 2)
				if len(fails) != 0 {
					t.Errorf("gate failures: %v", fails)
				}
				if o["done"] != 4 || o["aborted"] != 0 {
					t.Errorf("done=%v aborted=%v, want all 4 flows resuming to completion", o["done"], o["aborted"])
				}
				if o["auditProblems"] != 0 {
					t.Errorf("auditProblems=%v: node fault unbalanced the conservation books", o["auditProblems"])
				}
				if o["stalls"] != 0 || o["deadlocks"] != 0 {
					t.Errorf("stalls=%v deadlocks=%v: guard tripped on a survivable outage", o["stalls"], o["deadlocks"])
				}
				switch ph.name {
				case "sender-crash", "receiver-crash":
					if o["crashes"] != 1 || o["restarts"] != 1 {
						t.Errorf("crashes=%v restarts=%v, want the scripted pair firing once each", o["crashes"], o["restarts"])
					}
					if o["swFails"] != 0 || o["swRecovers"] != 0 {
						t.Errorf("swFails=%v swRecovers=%v in a crash cell, want 0", o["swFails"], o["swRecovers"])
					}
				case "switch-failure":
					if o["swFails"] != 1 || o["swRecovers"] != 1 {
						t.Errorf("swFails=%v swRecovers=%v, want the scripted pair firing once each", o["swFails"], o["swRecovers"])
					}
					if o["crashes"] != 0 || o["restarts"] != 0 {
						t.Errorf("crashes=%v restarts=%v in the switch cell, want 0", o["crashes"], o["restarts"])
					}
					if o["retrans"] == 0 {
						t.Error("retransmits=0 across a 3 ms switch blackout: go-back-N never engaged")
					}
				}
			})
		}
	}
}

// TestNodeResiliencePauseStorm pins the storm cell: with the long haul
// degraded to 1% for 10 ms, at least one baseline controller must hold its
// upstream pause duty over the detector threshold (MLCC's near-source loop
// legitimately tends to dodge it — that contrast is the figure's point), and
// the detection must stay an observation: all flows still finish, no halt.
func TestNodeResiliencePauseStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm cell runs every algorithm")
	}
	ph := nodeResilienceFig.cell("pause-storm")
	if ph == nil {
		t.Fatal("node-resilience has no pause-storm cell")
	}
	var storms float64
	for _, alg := range allAlgs {
		o, fails := runCell(t, ph, alg, 2)
		if len(fails) != 0 {
			t.Errorf("%s: gate failures: %v", alg, fails)
		}
		if o["done"] != 4 || o["aborted"] != 0 || o["auditProblems"] != 0 {
			t.Errorf("%s: done=%v aborted=%v auditProblems=%v, want a clean ride-through", alg, o["done"], o["aborted"], o["auditProblems"])
		}
		if o["stalls"] != 0 {
			t.Errorf("%s: stalls=%v — the storm cell must detect, not halt", alg, o["stalls"])
		}
		if alg != "mlcc" {
			storms += o["storms"]
		}
	}
	if storms == 0 {
		t.Error("no baseline tripped the storm detector across a 10 ms pause plateau")
	}
}
