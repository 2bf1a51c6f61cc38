package spec

import (
	"time"

	"mlcc/internal/host"
	"mlcc/internal/metrics"
	"mlcc/internal/sim"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
	"mlcc/internal/workload"
)

// Outcome is a finished run: the built network at its deadline and what
// Built.Run read off it.
type Outcome struct {
	*Built
	Summary topo.Summary
	// Tenants partitions the done and the aborted flows by scenario
	// component; nil without a scenario.
	Tenants *stats.TenantSet
	// Manifest is the telemetry's run manifest; nil without telemetry.
	Manifest *metrics.Manifest
}

// Run is the one run path: mlcc.Run, every figure cell and the determinism
// digest drive their built network through it. It attaches and publishes
// Config.Obs, arms sampling, runs to the deadline, takes the Summary and
// folds the scenario's tags into per-tenant statistics. With telemetry it
// fills the manifest — a new one stamped tool unless the caller set one —
// with the resolved config, whose Flows are every registered flow when flows
// were placed on b.Net by hand after Build, so the manifest replays the run.
// fct, when non-nil, receives every done flow's FCT in µs. Config.Obs
// is published a final time last, so it serves the completed run.
func (b *Built) Run(tool string, fct *metrics.Histogram) *Outcome {
	c, n, tel := b.Config, b.Net, b.Config.Telemetry
	if c.Obs != nil {
		every := tel.SampleInterval()
		if every <= 0 {
			every = sim.Millisecond
		}
		c.Obs.Attach(n, every)
		c.Obs.PublishNetwork(n, true)
	}
	rc := c
	rc.Telemetry = nil
	if b.Runner == nil && n.Table.Len() > len(b.Flows) {
		rc.Flows = placed(n)
	}
	tel.StartSampling(c.Deadline)
	t0 := time.Now()
	n.Run(c.Deadline)
	o := &Outcome{Built: b, Summary: n.Summary()}

	sum := &o.Summary
	for _, s := range sum.Samples {
		fct.Observe(s.FCT.Micros())
	}
	if b.Runner != nil {
		o.Tenants = stats.NewTenantSet()
		i := 0 // Samples are the done flows in flow-ID order
		for _, f := range n.Table.All() {
			switch tag := b.Runner.Tag(f.Info.ID); f.Fate() {
			case host.FateDone:
				o.Tenants.Add(tag, sum.Samples[i])
				i++
			case host.FateAborted:
				o.Tenants.Abort(tag)
			}
		}
	}
	if tel != nil {
		if tel.Manifest == nil {
			tel.Manifest = metrics.NewManifest(tool)
		}
		m := tel.Manifest
		m.Algorithm, m.Workload, m.Seed, m.Config = c.Algorithm, c.Workload, c.Seed, rc
		m.Flows = sum.Flows
		m.WallSeconds = time.Since(t0).Seconds()
		m.FillSim(n.Now(), n.Fired())
		o.Manifest = m
	}
	if c.Obs != nil {
		c.Obs.PublishNetwork(n, false)
	}
	return o
}

// placed is the trace of every flow registered on n, in flow-id order: the
// flows of a network built and then placed on by hand as one replayable
// Flows.
func placed(n *topo.Network) []workload.FlowSpec {
	flows := make([]workload.FlowSpec, 0, n.Table.Len())
	for _, f := range n.Table.All() {
		flows = append(flows, workload.FlowSpec{Src: n.HostIndex(f.Info.Src), Dst: n.HostIndex(f.Info.Dst),
			Size: f.Info.Size, Start: f.Start, Cross: f.Info.CrossDC})
	}
	return flows
}
