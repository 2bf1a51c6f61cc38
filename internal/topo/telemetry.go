package topo

import (
	"strconv"

	"mlcc/internal/host"
	"mlcc/internal/metrics"
)

// applyTelemetry wires a built network into its telemetry layer: every
// device-table row registers its instruments under the hierarchical naming
// scheme (sim.*, host.h<idx>.*, switch.{leaf,spine}<idx>.*, dci.dci<idx>.*)
// and receives its shard's flight recorder — one ring per shard, so hot-path
// recording stays lock-free under parallel execution and the rings merge
// time-ordered at export. Time-series sampling registers a quiescent pump
// hook on Run instead of scheduling engine events, keeping sampled runs
// event-for-event identical to passive ones on any shard count. A nil
// Telemetry (the default) makes this a no-op, so telemetry-off builds are
// untouched.
func (n *Network) applyTelemetry() {
	tel := n.P.Telemetry
	if tel == nil {
		return
	}
	reg := tel.Registry()
	tel.NodeNamer = n.NodeName
	frs := tel.ShardRecorders(n.shards)
	frOf := func(shard int) *metrics.FlightRecorder {
		if frs == nil {
			return nil
		}
		return frs[shard]
	}
	if iv := tel.SampleInterval(); iv > 0 {
		n.OnQuiescent(iv, tel.Pump)
	}

	if reg != nil {
		// Shard-wide aggregates; on a single-engine build these reduce to
		// the engine's own counters. The closures read across engines, which
		// is safe because registry instruments are only evaluated with the
		// simulation quiescent (post-run dump or between Run windows).
		reg.CounterFunc("sim.events_fired", func() int64 { return int64(n.Fired()) })
		reg.GaugeFunc("sim.events_pending", func() float64 { return float64(n.PendingEvents()) })
		reg.GaugeFunc("sim.now_ms", func() float64 { return n.Now().Millis() })
	}
	for i := range n.devs {
		d := &n.devs[i]
		if d.host != nil {
			d.host.SetRecorder(frOf(d.shard))
			d.host.RegisterMetrics(reg, d.metrics)
			continue
		}
		if i == n.numHosts {
			// Between the host rows and the first switch row: registration
			// order is the -sample-all stream order.
			n.registerFleetFeedback(reg)
		}
		d.sw.SetRecorder(frOf(d.shard))
		d.reg.RegisterMetrics(reg, d.metrics)
	}
	n.registerRuntime(reg)
}

// registerRuntime registers the runtime gauges (metrics.Registry.RuntimeGauge):
// each packet pool's high-water and, on a sharded build, the window count and
// each shard's busy and barrier-wait wall seconds. None costs anything per event.
func (n *Network) registerRuntime(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for i, pl := range n.Pools {
		reg.RuntimeGauge("pkt.pool"+strconv.Itoa(i)+".allocs", func() float64 { return float64(pl.Allocs) })
	}
	g := n.group
	if g == nil {
		return
	}
	reg.RuntimeGauge("sim.windows", func() float64 { return float64(g.Windows) })
	for i := range g.Busy {
		shard := "sim.shard" + strconv.Itoa(i)
		reg.RuntimeGauge(shard+".busy_s", func() float64 { return g.Busy[i].Seconds() })
		reg.RuntimeGauge(shard+".wait_s", func() float64 { return g.Wait[i].Seconds() })
	}
}

// registerFleetFeedback registers the fleet-wide feedback-plane aggregates
// (the per-host host.h<i>.fb_* counters are the breakdown; corruptions have
// none, the flight recorder's fb_corrupt events name the host). Called once
// per build — the registry rejects duplicate instrument names.
func (n *Network) registerFleetFeedback(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	hosts := n.Hosts
	sum := func(f func(h *host.Host) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, h := range hosts {
				t += f(h)
			}
			return t
		}
	}
	reg.CounterFunc("cc.fb.dropped", sum(func(h *host.Host) int64 { return h.FBDropped }))
	reg.CounterFunc("cc.fb.delayed", sum(func(h *host.Host) int64 { return h.FBDelayed }))
	reg.CounterFunc("cc.fb.corrupted", sum(func(h *host.Host) int64 { return h.FBCorrupted }))
	reg.CounterFunc("cc.fb.invalid_int", sum(func(h *host.Host) int64 { return h.InvalidINT }))
	reg.CounterFunc("cc.fb.watchdog_decays", sum(func(h *host.Host) int64 { return h.WatchdogDecays }))
	reg.CounterFunc("cc.fb.watchdog_recovers", sum(func(h *host.Host) int64 { return h.WatchdogRecovers }))
}
