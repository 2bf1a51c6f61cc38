package exp

import (
	"testing"
)

// TestFBResilienceAcceptance runs the full fb-resilience matrix (5 algorithms
// × 4 feedback attacks) and asserts the experiment's contract: every flow
// completes cleanly under every attack, the conservation books balance with
// feedback destroyed at host ingress, each attack demonstrably engages, and
// the blackout makes the watchdog decay and then fully recover. The matrix
// runs sharded (one engine per DC), exactly as `mlccfig -fig fb-resilience`
// does by default — feedback-fault plans are fully shard-safe.
func TestFBResilienceAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("20 dumbbell runs")
	}
	for i := range fbResilienceFig.cells {
		for _, alg := range allAlgs {
			ph, alg := &fbResilienceFig.cells[i], alg
			t.Run(ph.name+"/"+alg, func(t *testing.T) {
				t.Parallel()
				o, fails := runCell(t, ph, alg, 2)
				if o["done"] != 4 || o["aborted"] != 0 {
					t.Errorf("done=%v aborted=%v, want every flow completing cleanly", o["done"], o["aborted"])
				}
				if o["auditProblems"] != 0 {
					t.Errorf("auditProblems=%v: feedback drops unbalanced the conservation books", o["auditProblems"])
				}
				if len(fails) != 0 {
					t.Errorf("gate failures: %v", fails)
				}
				switch ph.name {
				case "ack-loss", "blackout":
					if o["fbDrops"] == 0 {
						t.Error("no feedback frames dropped: attack did not engage")
					}
				case "cnp-loss":
					// Only DCQCN paces CNPs; for the rest this phase is a
					// clean-run control and fbDrops is legitimately zero.
					if alg == "dcqcn" && o["fbDrops"] == 0 {
						t.Error("no CNPs dropped for dcqcn: attack did not engage")
					}
				case "int-corrupt":
					// Only the INT-consuming algorithms carry hop stacks.
					if alg == "mlcc" || alg == "hpcc" || alg == "powertcp" {
						if o["fbCorrupts"] == 0 || o["invalidINT"] == 0 {
							t.Errorf("fbCorrupts=%v invalidINT=%v: corruption did not engage or ingress validation missed it",
								o["fbCorrupts"], o["invalidINT"])
						}
					}
				}
				if ph.name == "blackout" {
					if o["wdDecays"] == 0 || o["wdRecovers"] == 0 {
						t.Errorf("wdDecays=%v wdRecovers=%v: watchdog did not decay and recover across the blackout",
							o["wdDecays"], o["wdRecovers"])
					}
					if o["wdRecovers"] != o["wdDecays"] {
						t.Errorf("wdRecovers=%v != wdDecays=%v: decay not fully unwound after feedback resumed",
							o["wdRecovers"], o["wdDecays"])
					}
				} else if o["wdDecays"] != 0 {
					// Thinned-but-present feedback must never trip the
					// watchdog: silence, not loss rate, is the trigger.
					t.Errorf("wdDecays=%v under %s: watchdog fired without a feedback blackout", o["wdDecays"], ph.name)
				}
			})
		}
	}
}
