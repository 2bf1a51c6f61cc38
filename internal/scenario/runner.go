package scenario

import (
	"fmt"

	"mlcc/internal/host"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/topo"
	"mlcc/internal/workload"
)

// Runner is a plan bound to a built network. Open-loop flows are registered
// immediately (before Run, in canonical merge order); collectives are primed
// with their phase-zero flows and then advanced by a quiescent barrier poll.
// The poll runs on the driving goroutine at exact boundary multiples with
// every engine parked, so phase launch times, flow-ID assignment and ECMP
// routing do not depend on the engine count.
type Runner struct {
	n    *topo.Network
	plan *Plan

	openLoop []workload.FlowSpec
	tags     map[pkt.FlowID]string

	colls []*collRun
	owner map[pkt.FlowID]*collRun
}

// collRun is one collective's live state.
type collRun struct {
	spec  Collective
	hosts []int // resolved ring placement

	phasesDone int
	flows      []*host.Flow // current phase, worker order
	failed     bool
	finished   bool
	finishedAt sim.Time // max End of the terminal phase's flows
}

// CollectiveStatus is one collective's end-of-run summary.
type CollectiveStatus struct {
	Name       string
	Phases     int // planned
	PhasesDone int // barriers passed cleanly
	Failed     bool
	Finished   bool
	FinishedAt sim.Time
}

// defaultPlacement interleaves W workers across the DCs — worker k on host
// k/2 of DC k%2 — so every ring hop of an even-sized ring crosses the long
// haul.
func defaultPlacement(n *topo.Network, w int) ([]int, error) {
	if w > n.NumHosts() {
		return nil, fmt.Errorf("%d workers exceed the %d-host topology", w, n.NumHosts())
	}
	hosts := make([]int, w)
	for k := 0; k < w; k++ {
		if k/2 >= n.HostsPerDC {
			return nil, fmt.Errorf("%d workers exceed the interleaved capacity of %d hosts per DC", w, n.HostsPerDC)
		}
		hosts[k] = k/2 + (k%2)*n.HostsPerDC
	}
	return hosts, nil
}

// resolvePlacement picks explicit hosts (bounds-checked) or the default
// interleaving.
func resolvePlacement(n *topo.Network, what, name string, workers int, explicit []int) ([]int, error) {
	if len(explicit) > 0 {
		for _, h := range explicit {
			if h >= n.NumHosts() {
				return nil, fmt.Errorf("scenario: %s %q: host %d outside the %d-host topology", what, name, h, n.NumHosts())
			}
		}
		return append([]int(nil), explicit...), nil
	}
	hosts, err := defaultPlacement(n, workers)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s %q: %v", what, name, err)
	}
	return hosts, nil
}

// incastSenders lists the burst sources: the lowest-indexed hosts of the
// destination's own DC (or the opposite one for cross bursts), skipping the
// destination.
func incastSenders(n *topo.Network, in Incast) ([]int, error) {
	if in.Dst >= n.NumHosts() {
		return nil, fmt.Errorf("scenario: incast %q: destination %d outside the %d-host topology", in.Name, in.Dst, n.NumHosts())
	}
	dc := n.DC(in.Dst)
	if in.Cross {
		dc = 1 - dc
	}
	var pool []int
	for h := dc * n.HostsPerDC; h < (dc+1)*n.HostsPerDC; h++ {
		if h != in.Dst {
			pool = append(pool, h)
		}
	}
	if in.FanIn > len(pool) {
		return nil, fmt.Errorf("scenario: incast %q: fan-in %d exceeds the %d available senders", in.Name, in.FanIn, len(pool))
	}
	return pool[:in.FanIn], nil
}

// expand builds the open-loop flow list of every non-collective component,
// in the canonical merged order.
func expand(p *Plan, n *topo.Network) ([]workload.FlowSpec, error) {
	var lists [][]workload.FlowSpec
	for _, in := range p.Incasts {
		senders, err := incastSenders(n, in)
		if err != nil {
			return nil, err
		}
		var fl []workload.FlowSpec
		for w := 0; w < in.Waves; w++ {
			start := in.Start + sim.Time(w)*in.Interval
			for _, s := range senders {
				fl = append(fl, workload.FlowSpec{
					Src: s, Dst: in.Dst, Size: in.Bytes, Start: start,
					Cross: n.CrossDC(s, in.Dst), Tag: in.Name,
				})
			}
		}
		lists = append(lists, fl)
	}
	for _, sh := range p.Shuffles {
		hosts, err := resolvePlacement(n, "shuffle", sh.Name, sh.workerCount(), sh.Hosts)
		if err != nil {
			return nil, err
		}
		var fl []workload.FlowSpec
		for i, src := range hosts {
			start := sh.Start + sim.Time(i)*sh.Stagger
			for j, dst := range hosts {
				if i == j {
					continue
				}
				fl = append(fl, workload.FlowSpec{
					Src: src, Dst: dst, Size: sh.Bytes, Start: start,
					Cross: n.CrossDC(src, dst), Tag: sh.Name,
				})
			}
		}
		lists = append(lists, fl)
	}
	for _, t := range p.Tenants {
		cdf, err := workload.ByName(t.Workload)
		if err != nil {
			return nil, fmt.Errorf("scenario: tenant %q: %w", t.Name, err)
		}
		fl, err := workload.Generate(workload.Spec{
			CDF:       cdf,
			IntraLoad: t.IntraLoad,
			CrossLoad: t.CrossLoad,
			HostRate:  n.P.HostRate,
			IntraRate: n.PerHostBisection(),
			CrossRate: n.P.FabricRate,
			Hosts:     n.NumHosts(),
			Duration:  t.Duration,
			Seed:      p.subSeed(t.Name),
			Tag:       t.Name,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: tenant %q: %w", t.Name, err)
		}
		for i := range fl {
			fl[i].Start += t.Start
		}
		lists = append(lists, fl)
	}
	return workload.MergeFlows(lists...), nil
}

// Bind attaches the plan to a built (not yet run) network: it validates,
// registers every open-loop flow, primes each collective's first phase and
// installs the quiescent barrier poll. The caller then drives n.Run with a
// deadline generous enough for the closed-loop phases to drain.
func Bind(p *Plan, n *topo.Network) (*Runner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	flows, err := expand(p, n)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		n:        n,
		plan:     p,
		openLoop: flows,
		tags:     make(map[pkt.FlowID]string, len(flows)),
		owner:    make(map[pkt.FlowID]*collRun),
	}
	for _, fs := range flows {
		f := n.AddFlow(fs.Src, fs.Dst, fs.Size, fs.Start)
		r.tags[f.Info.ID] = fs.Tag
	}
	for _, c := range p.Collectives {
		hosts, err := resolvePlacement(n, "collective", c.Name, c.workerCount(), c.Hosts)
		if err != nil {
			return nil, err
		}
		cr := &collRun{spec: c, hosts: hosts}
		r.colls = append(r.colls, cr)
		r.launchPhase(cr, c.Start)
	}
	if len(r.colls) > 0 {
		n.OnQuiescent(p.pollInterval(), r.tick)
	}
	return r, nil
}

// launchPhase registers one ring round: worker i sends Tensor bytes to
// worker (i+1) mod W, all starting at start. Callers hold the engines parked
// (bind time or a quiescent tick), so Table registration and the engine
// schedule push are race-free.
func (r *Runner) launchPhase(cr *collRun, start sim.Time) {
	w := len(cr.hosts)
	cr.flows = cr.flows[:0]
	for i := 0; i < w; i++ {
		f := r.n.AddFlow(cr.hosts[i], cr.hosts[(i+1)%w], cr.spec.Tensor, start)
		cr.flows = append(cr.flows, f)
		r.owner[f.Info.ID] = cr
	}
}

// tick is the quiescent barrier poll: with every engine parked at an exact
// boundary, scan each live collective's current phase. Once every flow has
// a fate, either fail the collective (an aborted tensor flow poisons
// the all-reduce — there is no partial sum) or launch the next phase Gap
// after the boundary. Iteration is in plan order and launches go through
// AddFlow, so flow-ID assignment stays a pure function of the plan.
func (r *Runner) tick(now sim.Time) {
	for _, cr := range r.colls {
		if cr.finished || cr.failed {
			continue
		}
		var last sim.Time
		settled, aborted := true, false
		for _, f := range cr.flows {
			fate := f.Fate()
			settled = settled && fate != host.FateUnfinished
			aborted = aborted || fate == host.FateAborted
			last = max(last, f.End())
		}
		if !settled {
			continue
		}
		if aborted {
			cr.failed = true
			cr.finishedAt = last
			continue
		}
		cr.phasesDone++
		if cr.phasesDone >= cr.spec.Phases {
			cr.finished = true
			cr.finishedAt = last
			continue
		}
		r.launchPhase(cr, now+cr.spec.Gap)
	}
}

// Tag names the component that produced flow id ("" for flows the scenario
// did not register).
func (r *Runner) Tag(id pkt.FlowID) string {
	if tag, ok := r.tags[id]; ok {
		return tag
	}
	if cr, ok := r.owner[id]; ok {
		return cr.spec.Name
	}
	return ""
}

// OpenLoop returns the open-loop flow schedule the runner registered, in
// canonical order (collective flows are closed-loop and excluded — they
// cannot be replayed as a trace).
func (r *Runner) OpenLoop() []workload.FlowSpec {
	return append([]workload.FlowSpec(nil), r.openLoop...)
}

// Statuses reports each collective's end state, in plan order.
func (r *Runner) Statuses() []CollectiveStatus {
	out := make([]CollectiveStatus, 0, len(r.colls))
	for _, cr := range r.colls {
		out = append(out, CollectiveStatus{
			Name:       cr.spec.Name,
			Phases:     cr.spec.Phases,
			PhasesDone: cr.phasesDone,
			Failed:     cr.failed,
			Finished:   cr.finished,
			FinishedAt: cr.finishedAt,
		})
	}
	return out
}
