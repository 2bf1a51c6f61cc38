package topo

import (
	"fmt"

	"mlcc/internal/fabric"
	"mlcc/internal/host"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/stats"
)

// Summary is what a run produced, collected once: flow fates with their FCT
// samples, switch, host and port counter sums (every fault outcome among
// them: the fault plane counts nothing itself), the conservation verdict and
// whether a guard stall halted the run. The one run path, spec.Built.Run,
// takes it once for mlcc.Run, the figure harness and the determinism digest,
// which read it instead of folding the flow table and the switch tiers
// themselves.
type Summary struct {
	Flows      int // registered
	Done       int // finished at the receiver, aborted by the sender or not
	Aborted    int // given up by the sender before the receiver finished
	Unfinished int // neither done nor aborted at collection time

	// Samples holds one entry per done flow in flow-ID order; IDs[i] is
	// Samples[i]'s flow. An aborted flow has no FCT and no sample.
	Samples []stats.FCTSample
	IDs     []pkt.FlowID

	// Bounds has one line per physical bound the run broke: a done flow
	// faster than its ideal FCT (see idealFCT), a port that serialized more
	// than its rate × the elapsed time plus the one frame it may have just
	// started.
	Bounds []string

	// Switch counters, summed over every switch: leaves, spines and DCIs.
	PFCPauses      int64
	Drops          int64
	SwitchFails    int64 // node-fault failures applied
	SwitchRecovers int64 // node-fault recoveries applied

	// Host counters, summed over every host.
	Retransmits      int64
	FBDropped        int64
	FBDelayed        int64
	FBCorrupted      int64
	InvalidINT       int64
	WatchdogDecays   int64
	WatchdogRecovers int64
	Crashes          int64
	Restarts         int64

	// FaultDrops is every frame the fault layer destroyed, summed over every
	// port: transmitter-side discards plus in-flight cuts, under link and
	// node faults alike.
	FaultDrops int64

	// AuditProblems is the conservation ledger's end-of-run problem list
	// (nil without a ledger or when the books close).
	AuditProblems []string

	// Stalled reports a graceful halt requested by a quiescent hook (the
	// guard plane's progress supervisor), StallReason why.
	Stalled     bool
	StallReason string
}

// Summary collects the run's results with the simulation quiescent (after
// Run, or inside a quiescent hook). Completions are gathered here, in
// flow-ID order, rather than through host OnFlowDone closures: on a sharded
// build the closures would write one collector from two engines'
// goroutines, and even single-engine a completion-order walk makes sample
// order depend on event timing. Flow-ID order is identical for shards=1 and
// shards=N (the digest tests prove the per-flow outcomes match), so
// everything derived from a Summary is too.
func (n *Network) Summary() Summary {
	s := Summary{Flows: n.Table.Len(), AuditProblems: n.AuditProblems()}
	for id := 1; id <= s.Flows; id++ {
		f := n.Table.Get(pkt.FlowID(id))
		switch f.Fate() {
		case host.FateDone:
			s.Done++
			fct := f.FCT()
			if ideal := n.idealFCT(f); fct < ideal {
				s.Bounds = append(s.Bounds, fmt.Sprintf("ideal FCT: flow %d finished in %v, below its ideal %v", f.Info.ID, fct, ideal))
			}
			s.Samples = append(s.Samples, stats.FCTSample{Size: f.Info.Size, FCT: fct, Cross: f.Info.CrossDC, Start: f.Start})
			s.IDs = append(s.IDs, f.Info.ID)
		case host.FateAborted:
			s.Aborted++
		default:
			s.Unfinished++
		}
	}
	now := n.Now()
	for j := range n.devs {
		d := &n.devs[j]
		for i, p := range d.ports {
			s.FaultDrops += p.FaultDrops + p.CutDrops
			if limit := sim.BDPBytes(p.Rate, now) + int64(n.P.mtu); p.TxBytes > limit {
				s.Bounds = append(s.Bounds, fmt.Sprintf("link capacity: %s port %d sent %d B in %v, over its %v limit of %d B", d.name(), i, p.TxBytes, now, p.Rate, limit))
			}
		}
	}
	for _, sw := range n.switches {
		s.PFCPauses += sw.PFCPauses
		s.Drops += sw.Drops
		s.SwitchFails += sw.Fails
		s.SwitchRecovers += sw.Recovers
	}
	for _, h := range n.Hosts {
		s.Retransmits += h.Retransmits
		s.FBDropped += h.FBDropped
		s.FBDelayed += h.FBDelayed
		s.FBCorrupted += h.FBCorrupted
		s.InvalidINT += h.InvalidINT
		s.WatchdogDecays += h.WatchdogDecays
		s.WatchdogRecovers += h.WatchdogRecovers
		s.Crashes += h.Crashes
		s.Restarts += h.Restarts
	}
	s.Stalled, s.StallReason = n.Halted()
	return s
}

// Failures is the one failure gate of a finished run, one line per failure:
// every open conservation book, a guard stall's halt and a broken bound
// always fail it, aborted flows only when abortsExpected is false. mlccsim
// exits non-zero on any; a figure reports each against its (algorithm, cell).
func (s *Summary) Failures(abortsExpected bool) []string {
	var fails []string
	for _, prob := range s.AuditProblems {
		fails = append(fails, "conservation: "+prob)
	}
	if s.Stalled {
		fails = append(fails, "guard stall aborted the run: "+s.StallReason)
	}
	fails = append(fails, s.Bounds...)
	if s.Aborted > 0 && !abortsExpected {
		fails = append(fails, fmt.Sprintf("%d flow(s) aborted — none expected", s.Aborted))
	}
	return fails
}

// idealFCT is the least time flow f can take: the one-way propagation along
// its route plus its bytes serialized at the route's narrowest link.
func (n *Network) idealFCT(f *host.Flow) sim.Time {
	out := n.Hosts[n.HostIndex(f.Info.Src)].Port()
	prop, narrowest := sim.Time(0), out.Rate
	for {
		prop += out.Delay
		narrowest = min(narrowest, out.Rate)
		sw, ok := out.Peer().Owner.(*fabric.Switch)
		if !ok {
			return prop + sim.TxTime(int(f.Info.Size), narrowest)
		}
		out = sw.Port(sw.RouteFor(f.Info.Dst, f.Info.ID))
	}
}
