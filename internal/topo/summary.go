package topo

import (
	"fmt"

	"mlcc/internal/pkt"
	"mlcc/internal/stats"
)

// Summary is what a run produced, collected once: flow fates with their FCT
// samples, switch and host counter sums, the conservation verdict and
// whether a guard stall halted the run. The one run path, spec.Built.Run,
// takes it once for mlcc.Run, the figure harness and the determinism digest,
// which read it instead of folding the flow table and the switch tiers
// themselves.
type Summary struct {
	Flows      int // registered
	Done       int
	Aborted    int
	Unfinished int // neither done nor aborted at collection time

	// Samples holds one entry per finished flow — done, or aborted (Aborted
	// set, FCT meaningless) — in flow-ID order; IDs[i] is Samples[i]'s flow.
	Samples []stats.FCTSample
	IDs     []pkt.FlowID

	// Switch counters, summed over every switch: leaves, spines and DCIs.
	PFCPauses int64
	Drops     int64

	// Host counters, summed over every host.
	HostAborts       int64
	Retransmits      int64
	FBDropped        int64
	InvalidINT       int64
	WatchdogDecays   int64
	WatchdogRecovers int64

	// AuditProblems is the conservation ledger's end-of-run problem list
	// (nil without a ledger or when the books close).
	AuditProblems []string

	// Stalled reports a graceful halt requested through RequestHalt (the
	// guard plane's progress supervisor), StallReason why.
	Stalled     bool
	StallReason string
}

// Summary collects the run's results with the simulation quiescent (after
// Run, or inside a quiescent hook). Completions are gathered here, in
// flow-ID order, rather than through OnFlowDone/OnFlowAbort closures: on a
// sharded build the closures would write one collector from two engines'
// goroutines, and even single-engine a completion-order walk makes sample
// order depend on event timing. Flow-ID order is identical for shards=1 and
// shards=N (the digest tests prove the per-flow outcomes match), so
// everything derived from a Summary is too.
func (n *Network) Summary() Summary {
	s := Summary{Flows: n.Table.Len(), AuditProblems: n.AuditProblems()}
	for id := 1; id <= s.Flows; id++ {
		f := n.Table.Get(pkt.FlowID(id))
		smp := stats.FCTSample{Size: f.Info.Size, Cross: f.Info.CrossDC, Start: f.Start}
		switch {
		case f.Done:
			s.Done++
			smp.FCT = f.FCT()
		case f.Aborted:
			s.Aborted++
			smp.Aborted = true
		default:
			s.Unfinished++
			continue
		}
		s.Samples = append(s.Samples, smp)
		s.IDs = append(s.IDs, f.Info.ID)
	}
	for _, sw := range n.switches {
		s.PFCPauses += sw.PFCPauses
		s.Drops += sw.Drops
	}
	for _, h := range n.Hosts {
		s.HostAborts += h.Aborted
		s.Retransmits += h.Retransmits
		s.FBDropped += h.FBDropped
		s.InvalidINT += h.InvalidINT
		s.WatchdogDecays += h.WatchdogDecays
		s.WatchdogRecovers += h.WatchdogRecovers
	}
	s.Stalled, s.StallReason = n.Halted()
	return s
}

// Failures is the one failure gate of a finished run, one line per failure:
// every open conservation book and a guard stall's halt always fail it,
// aborted flows only when abortsExpected is false. mlccsim exits non-zero on
// any; a figure reports each against its (algorithm, cell).
func (s *Summary) Failures(abortsExpected bool) []string {
	var fails []string
	for _, prob := range s.AuditProblems {
		fails = append(fails, "conservation: "+prob)
	}
	if s.Stalled {
		fails = append(fails, "guard stall aborted the run: "+s.StallReason)
	}
	if s.Aborted > 0 && !abortsExpected {
		fails = append(fails, fmt.Sprintf("%d flow(s) aborted — none expected", s.Aborted))
	}
	return fails
}
