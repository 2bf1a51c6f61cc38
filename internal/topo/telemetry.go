package topo

import (
	"strconv"

	"mlcc/internal/cc"
	"mlcc/internal/host"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// applyTelemetry wires a built network into its telemetry layer: every
// device-table row registers once, as a metrics.Source under its prefix in
// the hierarchical naming scheme (sim.*, host.h<idx>.*,
// switch.{leaf,spine}<idx>.*, dci.dci<idx>.*), and receives its shard's flight recorder — one ring per shard, so hot-path
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

	// Registration order is the -sample-all stream order.
	reg.Add("sim", metrics.SourceFunc(n.simInstruments))
	for i := range n.devs {
		d := &n.devs[i]
		if i == n.numHosts { // between the host rows and the first switch row
			reg.Add("cc.fb", metrics.SourceFunc(n.fleetFeedback))
		}
		if d.host != nil {
			d.host.SetRecorder(frOf(d.shard))
		} else {
			d.sw.SetRecorder(frOf(d.shard))
		}
		reg.AddNamed(d)
	}
	reg.Add("pkt", metrics.SourceFunc(n.poolInstruments))
}

// armSignalAges registers one signal-age histogram per INT-driven loop of
// the network's algorithm — "cc.<alg>.ack_age_ns" when switches stamp INT
// (HPCC, PowerTCP, MLCC), "cc.<alg>.sint_age_ns" when the DCIs reflect
// Switch-INT (MLCC) — and wraps each shard's sender factory so its senders
// age into that shard's part. DCQCN and Timely carry no switch stamp to
// age, so their senders stay unwrapped; R̄_DQM reaches the sender on a
// bare ACK. Without a registry nothing is registered or wrapped.
func (n *Network) armSignalAges() {
	reg := n.P.Telemetry.Registry()
	if reg == nil || !n.P.intEnabled && !n.algs[0].UseMLCCDCI {
		return
	}
	ages := func(on bool, loop string) []*metrics.Histogram {
		if !on {
			return make([]*metrics.Histogram, n.shards)
		}
		return reg.Histograms("cc."+n.algs[0].Name+"."+loop+"_age_ns", n.shards)
	}
	ack, sint := ages(n.P.intEnabled, "ack"), ages(n.algs[0].UseMLCCDCI, "sint")
	for i := range n.algs {
		next, ack, sint := n.algs[i].NewSender, ack[i], sint[i]
		n.algs[i].NewSender = func(f cc.FlowInfo) cc.Sender { return &agedSender{Sender: next(f), ack: ack, sint: sint} }
	}
}

// agedSender is a sender whose ACK and Switch-INT callbacks, whenever they
// lower its rate, observe the age of the signal they acted on: now minus
// the oldest INTHop.TS on the frame's stack, in ns. A frame with no
// records is not aged. Rate is a pure read, so ageing changes no event.
type agedSender struct {
	cc.Sender
	ack, sint *metrics.Histogram
}

func (s *agedSender) OnAck(now sim.Time, p *pkt.Packet) {
	if s.ack == nil || len(p.Hops) == 0 {
		s.Sender.OnAck(now, p)
		return
	}
	before := s.Rate()
	s.Sender.OnAck(now, p)
	s.age(s.ack, before, now, p)
}

func (s *agedSender) OnSwitchINT(now sim.Time, p *pkt.Packet) {
	if s.sint == nil || len(p.Hops) == 0 {
		s.Sender.OnSwitchINT(now, p)
		return
	}
	before := s.Rate()
	s.Sender.OnSwitchINT(now, p)
	s.age(s.sint, before, now, p)
}

// age observes p's stack in h if the callback just run lowered the rate.
func (s *agedSender) age(h *metrics.Histogram, before sim.Rate, now sim.Time, p *pkt.Packet) {
	if s.Rate() >= before {
		return
	}
	oldest := p.Hops[0].TS
	for _, hop := range p.Hops[1:] {
		oldest = min(oldest, hop.TS)
	}
	h.Observe(float64((now - oldest) / sim.Nanosecond))
}

// simInstruments are the network's engine aggregates, registered as "sim.*";
// on a single-engine build they reduce to the engine's own counters. They
// read across engines, which is safe because registry instruments are only
// read with the simulation quiescent (post-run dump or between Run
// windows). The runtime gauges — the event loop's cancelled and
// same-instant shares and, on a sharded build, the window count and each
// shard's busy and barrier-wait wall seconds — cost nothing per event.
func (n *Network) simInstruments(emit func(port int, name string, kind metrics.Kind, v float64)) {
	fired := n.Fired()
	emit(-1, "events_fired", metrics.Counter, float64(fired))
	emit(-1, "events_pending", metrics.Gauge, float64(n.PendingEvents()))
	emit(-1, "now_ms", metrics.Gauge, n.Now().Millis())
	var popped, same, cancels uint64
	for _, e := range n.Engines {
		p, s, c := e.LoopStats()
		popped, same, cancels = popped+p, same+s, cancels+c
	}
	emit(-1, "cancelled_frac", metrics.Runtime, share(cancels, fired+cancels))
	emit(-1, "same_instant_frac", metrics.Runtime, share(same, popped))
	g := n.group
	if g == nil {
		return
	}
	emit(-1, "windows", metrics.Runtime, float64(g.Windows))
	for i := range g.Busy {
		shard := "shard" + strconv.Itoa(i)
		emit(-1, shard+".busy_s", metrics.Runtime, g.Busy[i].Seconds())
		emit(-1, shard+".wait_s", metrics.Runtime, g.Wait[i].Seconds())
	}
}

// share is part/whole, 0 for an empty whole.
func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// poolInstruments are each packet pool's high-water, registered as the
// runtime gauges "pkt.pool<i>.allocs".
func (n *Network) poolInstruments(emit func(port int, name string, kind metrics.Kind, v float64)) {
	for i, pl := range n.Pools {
		emit(-1, "pool"+strconv.Itoa(i)+".allocs", metrics.Runtime, float64(pl.Allocs))
	}
}

// fleetFeedback are the fleet-wide feedback-plane aggregates, registered as
// "cc.fb.*" (the per-host host.h<i>.fb_* counters are the breakdown;
// corruptions have none, the flight recorder's fb_corrupt events name the
// host).
func (n *Network) fleetFeedback(emit func(port int, name string, kind metrics.Kind, v float64)) {
	sum := func(name string, f func(h *host.Host) int64) {
		var t int64
		for _, h := range n.Hosts {
			t += f(h)
		}
		emit(-1, name, metrics.Counter, float64(t))
	}
	sum("dropped", func(h *host.Host) int64 { return h.FBDropped })
	sum("delayed", func(h *host.Host) int64 { return h.FBDelayed })
	sum("corrupted", func(h *host.Host) int64 { return h.FBCorrupted })
	sum("invalid_int", func(h *host.Host) int64 { return h.InvalidINT })
	sum("watchdog_decays", func(h *host.Host) int64 { return h.WatchdogDecays })
	sum("watchdog_recovers", func(h *host.Host) int64 { return h.WatchdogRecovers })
}
