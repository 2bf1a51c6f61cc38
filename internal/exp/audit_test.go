package exp

import (
	"fmt"
	"strings"
	"testing"

	"mlcc/internal/audit"
	"mlcc/internal/pkt"
	"mlcc/internal/spec"
	"mlcc/internal/topo"
)

// TestDigestAuditInvariant proves the conservation ledger is behaviour-free:
// running the digest scenario with the audit plane attached must reproduce
// the golden digest bit for bit (the ledger schedules no events and draws no
// randomness) AND report zero conservation violations. mlcc and dcqcn always
// run; the remaining algorithms are skipped under -short.
func TestDigestAuditInvariant(t *testing.T) {
	algs := []string{"mlcc", "dcqcn"}
	if !testing.Short() {
		algs = append(algs, "timely", "hpcc", "powertcp")
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			got, r := digestOf(alg, func(c *spec.Config) { c.Audit = true })
			if want := goldenDigests[alg]; got != want {
				t.Errorf("digest with audit = %#016x, want golden %#016x", got, want)
			}
			for _, p := range r.Summary.AuditProblems {
				t.Errorf("conservation violation: %s", p)
			}
		})
	}
}

// TestAuditCleanUnderFaults runs every algorithm through the resilience flap
// scenario with the ledger attached and requires zero conservation
// violations — the acceptance proof that the byte-level accounting survives
// link cuts, degradation, Bernoulli loss and go-back-N recovery, on one
// engine and sharded (one engine per DC with the merged ledgers still
// closing clean).
func TestAuditCleanUnderFaults(t *testing.T) {
	algs := []string{"mlcc", "dcqcn"}
	if !testing.Short() {
		algs = append(algs, "timely", "hpcc", "powertcp")
	}
	for _, alg := range algs {
		for _, shards := range []int{1, 2} {
			alg, shards := alg, shards
			t.Run(fmt.Sprintf("%s/shards%d", alg, shards), func(t *testing.T) {
				t.Parallel()
				o := runTestCell(t, &conservationFlapCell, alg, shards)
				n := o.n
				if shards == 2 && n.ShardCount() != 2 {
					t.Fatalf("fault plan forced fallback: ShardCount = %d, want 2", n.ShardCount())
				}
				// The ledger's per-link and prefix checks hold at any instant;
				// AuditProblems only insists on zero in-flight when the pools
				// actually drained. Timely recovers so slowly from the loss
				// window that its 8 MB flows outlive the deadline — legitimate,
				// so full drain is required only of the algorithms that converge.
				drained := n.Drained()
				if !drained && (alg == "mlcc" || alg == "dcqcn") {
					t.Error("pools not drained at quiescence")
				}
				for _, p := range n.AuditProblems() {
					t.Errorf("conservation violation: %s", p)
				}
				aud := n.Audit()
				if o.sum.FaultDrops == 0 {
					t.Error("fault plan did not engage: no frames destroyed")
				}
				var injected, delivered, wred, faultData int64
				for _, r := range aud.Flows() {
					injected += r.Fates[audit.Injected].Pkts
					delivered += r.Fates[audit.Delivered].Pkts
					wred += r.Fates[audit.WRED].Pkts
					faultData += r.Fates[audit.Corrupt].Pkts + r.Fates[audit.Down].Pkts
				}
				if injected == 0 || delivered == 0 {
					t.Fatalf("ledger saw no traffic: injected=%d delivered=%d", injected, delivered)
				}
				// Cross-check the ledger against the hosts' own counters.
				var sent, recv int64
				for _, h := range n.Hosts {
					sent += h.SentData
					recv += h.RecvData
				}
				if injected != sent || delivered != recv {
					t.Errorf("ledger disagrees with hosts: injected=%d sent=%d delivered=%d recv=%d",
						injected, sent, delivered, recv)
				}
				if got := n.Summary().Drops; wred != got {
					t.Errorf("ledger WRED bucket %d != switch admission drops %d", wred, got)
				}
				// Every frame the ports destroyed is in the ledger: data frames
				// in their flows' fault fates, the rest as control drops.
				var ctl int64
				_, rest, _ := strings.Cut(aud.Summary(), "ctl_fault_drops=")
				fmt.Sscan(rest, &ctl)
				if got := o.sum.FaultDrops; faultData+ctl != got {
					t.Errorf("ledger fault drops %d data + %d control != ports' fault drops %d", faultData, ctl, got)
				}
				if drained && !strings.Contains(aud.Summary(), "flows=3 done=3") {
					t.Errorf("summary: %s", aud.Summary())
				}
			})
		}
	}
}

// TestAuditCleanUnderAbort attaches the ledger to the blackout-abort
// scenario: the cross flow exhausts its retransmission budget and the
// stranded bytes must land in the abort bucket with the ledger still clean.
func TestAuditCleanUnderAbort(t *testing.T) {
	o := runTestCell(t, &conservationAbortCell, topo.AlgDCQCN, 1)
	n, cross := o.n, o.groups["cross"][0]

	if !cross.Aborted {
		t.Fatalf("cross flow survived the blackout (done=%v)", cross.Done)
	}
	for _, p := range o.sum.AuditProblems {
		t.Errorf("conservation violation: %s", p)
	}
	r := n.Audit().Flow(pkt.FlowID(cross.Info.ID))
	if r == nil || !r.Aborted {
		t.Fatalf("ledger missed the abort: %+v", r)
	}
	if r.AbortUnacked <= 0 || r.AckedMax+r.AbortUnacked != r.Size {
		t.Errorf("abort bucket: acked=%d + unacked=%d != size=%d", r.AckedMax, r.AbortUnacked, r.Size)
	}
	if r.Fates[audit.Down].Pkts == 0 {
		t.Error("blackout destroyed no frames of the cross flow")
	}
}
