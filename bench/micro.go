package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"mlcc/internal/cc"
	"mlcc/internal/cc/dcqcn"
	"mlcc/internal/cc/hpcc"
	"mlcc/internal/cc/powertcp"
	"mlcc/internal/cc/timely"
	"mlcc/internal/core"
	"mlcc/internal/dci"
	"mlcc/internal/fabric"
	"mlcc/internal/host"
	"mlcc/internal/link"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
	"mlcc/internal/workload"
)

// The micro-drivers load one layer at a time through its public functions,
// outside any network, so a per-layer change has a number of its own. Each
// driver runs a warm-up batch and microBatches measured batches of a fixed
// operation count and reports the cheapest batch per operation — the same
// "interference only adds" argument as the lap estimator — and each asserts
// its own delivered/acked counts, so a driver that silently stopped doing
// the work fails the correctness gate instead of reporting a fast number.

const microBatches = 8

// microResult is one reported micro metric.
type microResult struct {
	name, unit string
	value      float64
	err        error
}

// microDriver is one layer probe.
type microDriver struct {
	name   string // the ns/op metric
	allocs bool   // also report allocs/op, as name with _ns replaced by _allocs
	ops    int
	unit   string // default "ns"
	setup  microSetup
}

// batchFunc runs ops operations and returns how many it completed and how
// long they took; checkFunc runs once after all batches with the total
// completed; a microSetup builds a driver's fixture and returns both.
type (
	batchFunc  func(ops int) (int, time.Duration)
	checkFunc  func(total int) error
	microSetup func() (batchFunc, checkFunc)
)

func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// whole adapts a batch that always completes every operation it was asked for.
func whole(f func(ops int)) batchFunc {
	return func(ops int) (int, time.Duration) { return ops, timeIt(func() { f(ops) }) }
}

func runMicros(scale int) []microResult {
	batches := microBatches
	if scale > 1 {
		batches = 2 // the smoke test wants the assertions, not the numbers
	}
	var out []microResult
	for _, d := range microDrivers() {
		ops := max(d.ops/scale, min(d.ops, 64))
		batch, check := d.setup()
		total, _ := batch(ops) // warm-up: pools fill, free lists and maps reach steady size
		best, bestAllocs := math.Inf(1), math.Inf(1)
		var ms0, ms1 runtime.MemStats
		for b := 0; b < batches; b++ {
			runtime.ReadMemStats(&ms0)
			n, d := batch(ops)
			runtime.ReadMemStats(&ms1)
			total += n
			best = math.Min(best, float64(d.Nanoseconds())/float64(n))
			bestAllocs = math.Min(bestAllocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(n))
		}
		err := check(total)
		unit := d.unit
		if unit == "" {
			unit = "ns"
		}
		if unit == "ms" {
			best /= 1e6
		}
		out = append(out, microResult{name: d.name, unit: unit, value: best, err: err})
		if d.allocs {
			out = append(out, microResult{name: strings.Replace(d.name, "_ns", "_allocs", 1), unit: "count", value: bestAllocs})
		}
	}
	return out
}

func microDrivers() []microDriver {
	return []microDriver{
		{name: "sim.schedule_fire_ns.d1k", ops: 40000, setup: simHold(1 << 10)},
		{name: "sim.schedule_fire_ns.d64k", ops: 40000, setup: simHold(64 << 10)},
		{name: "sim.cancel_resched_ns", ops: 40000, setup: simCancelResched},
		{name: "sim.same_ts_burst_ns", ops: 40000, setup: simSameTS},
		{name: "sim.shard.empty_window_ns", ops: 2000, setup: simEmptyWindow},
		{name: "pkt.pool_getput_ns", ops: 100000, setup: pktPool},
		{name: "link.transfer_ns", ops: 20000, setup: linkTransfer},
		{name: "link.pause_ns", ops: 20000, setup: linkPause},
		{name: "fabric.forward_ns", ops: 20000, setup: fabricForward(true)},
		{name: "fabric.forward_noint_ns", ops: 20000, setup: fabricForward(false)},
		{name: "dci.pfq_forward_ns.f1", allocs: true, ops: 10240, setup: dciPFQ(1)},
		{name: "dci.pfq_forward_ns.f256", allocs: true, ops: 10240, setup: dciPFQ(256)},
		{name: "dci.reflect_int_ns", allocs: true, ops: 10240, setup: dciReflect},
		{name: "core.dqm_round_ns", allocs: true, ops: 20000, setup: coreDQMRound},
		{name: "core.dqm_pktout_ns", allocs: true, ops: 100000, setup: coreDQMPktOut},
		{name: "core.sender_onack_ns", allocs: true, ops: 40000, setup: coreSenderOnAck},
		{name: "core.sender_onswitchint_ns", allocs: true, ops: 40000, setup: coreSenderOnSwitchINT},
		{name: "core.receiver_ondata_ns", allocs: true, ops: 40000, setup: coreReceiverOnData},
		{name: "cc.dcqcn.onack_ns", allocs: true, ops: 100000, setup: ccOnAck("dcqcn")},
		{name: "cc.dcqcn.oncnp_ns", allocs: true, ops: 40000, setup: ccDCQCNOnCNP},
		{name: "cc.timely.onack_ns", allocs: true, ops: 100000, setup: ccOnAck("timely")},
		{name: "cc.hpcc.onack_ns", allocs: true, ops: 40000, setup: ccOnAck("hpcc")},
		{name: "cc.powertcp.onack_ns", allocs: true, ops: 40000, setup: ccOnAck("powertcp")},
		{name: "host.pair_pkt_ns", allocs: true, ops: 10000, setup: hostPair},
		{name: "host.flow_churn_ns", allocs: true, ops: 4000, setup: hostChurn},
		{name: "workload.generate_ns_per_flow", ops: 2000, setup: workloadGenerate},
		{name: "topo.build_twodc_ms", ops: 2, unit: "ms", setup: topoBuild},
		{name: "topo.addflow_ns", ops: 4000, setup: topoAddFlow},
		{name: "stats.fct_percentile_ns", ops: 2, setup: statsPercentile},
	}
}

// --- sim ---------------------------------------------------------------------

// xorshift is the drivers' inline PRNG: a few cycles per draw, so the random
// inter-event gaps do not show up in a ~100 ns measurement.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// simHold is the classic hold model: the heap stays at depth pending events
// and every firing schedules one more at a random later time, so one
// operation is one pop plus one push at that depth.
func simHold(depth int) microSetup {
	return func() (batchFunc, checkFunc) {
		e := sim.NewEngine()
		rng := xorshift(0x9e3779b97f4a7c15)
		spread := uint64(2 * depth)
		var fired, target int
		var fn func()
		fn = func() {
			fired++
			e.After(sim.Time(1+rng.next()%spread)*sim.Nanosecond, fn)
			if fired == target {
				e.Stop()
			}
		}
		for i := 0; i < depth; i++ {
			e.After(sim.Time(1+rng.next()%spread)*sim.Nanosecond, fn)
		}
		batch := whole(func(ops int) {
			target = fired + ops
			e.Run()
		})
		check := func(total int) error {
			if fired != total || e.Pending() != depth {
				return fmt.Errorf("fired %d of %d, %d pending (want %d)", fired, total, e.Pending(), depth)
			}
			return nil
		}
		return batch, check
	}
}

// simCancelResched is the pacing/timeout pattern of hosts and PFQ
// disciplines: arm a timer, cancel it, arm a tighter one.
func simCancelResched() (batchFunc, checkFunc) {
	e := sim.NewEngine()
	fired := 0
	fn := func() { fired++ }
	batch := whole(func(ops int) {
		for i := 0; i < ops; i++ {
			t := e.After(2*sim.Nanosecond, fn)
			t.Cancel()
			e.After(sim.Nanosecond, fn)
			if e.PendingRaw() > 1024 {
				e.Run()
			}
		}
		e.Run()
	})
	return batch, func(total int) error {
		if fired != total {
			return fmt.Errorf("fired %d of %d re-armed timers", fired, total)
		}
		return nil
	}
}

// simSameTS schedules bursts of events at one timestamp, where only the
// insertion sequence orders them — what a batch pop would accelerate.
func simSameTS() (batchFunc, checkFunc) {
	const burst = 64
	e := sim.NewEngine()
	fired := 0
	fn := func() { fired++ }
	batch := func(ops int) (int, time.Duration) {
		ops -= ops % burst
		return ops, timeIt(func() {
			for done := 0; done < ops; done += burst {
				at := e.Now() + sim.Nanosecond
				for i := 0; i < burst; i++ {
					e.At(at, fn)
				}
				e.Run()
			}
		})
	}
	return batch, func(total int) error {
		if fired != total {
			return fmt.Errorf("fired %d of %d", fired, total)
		}
		return nil
	}
}

// simEmptyWindow drives an idle two-engine ShardGroup: the fixed cost of one
// barrier window (goroutine hand-off, wait, exchange) with no events in it.
func simEmptyWindow() (batchFunc, checkFunc) {
	windows := 0
	g := sim.NewShardGroup([]*sim.Engine{sim.NewEngine(), sim.NewEngine()}, sim.Microsecond, func(sim.Time) { windows++ })
	batch := whole(func(ops int) { g.RunUntil(g.Now() + sim.Time(ops)*sim.Microsecond) })
	return batch, func(total int) error {
		if windows != total {
			return fmt.Errorf("%d barrier exchanges for %d windows", windows, total)
		}
		return nil
	}
}

// --- pkt ---------------------------------------------------------------------

// pktPool cycles packets through the free list with 64 held at any time, each
// stamped with one INT hop so the retained hop storage is exercised.
func pktPool() (batchFunc, checkFunc) {
	pool := pkt.NewPool()
	var held [64]*pkt.Packet
	batch := whole(func(ops int) {
		for i := 0; i < ops; i++ {
			p := pool.NewData(1, 1, 2, int64(i), pkt.DefaultMTU)
			p.AddHop(pkt.INTHop{Node: 100, Band: 100 * sim.Gbps})
			slot := &held[i%len(held)]
			pool.Put(*slot)
			*slot = p
		}
	})
	return batch, func(int) error {
		for i, p := range held {
			pool.Put(p)
			held[i] = nil
		}
		if out := pool.Outstanding(); out != 0 {
			return fmt.Errorf("%d packets outstanding after returning all", out)
		}
		return nil
	}
}

// --- link --------------------------------------------------------------------

// sink counts and frees every delivered frame.
type sink struct {
	pool *pkt.Pool
	got  int
}

func (s *sink) Receive(p *pkt.Packet, _ *link.Port) {
	s.got++
	s.pool.Put(p)
}

// feed emits a fixed number of MTU-sized data frames.
type feed struct {
	pool      *pkt.Pool
	remaining int
}

func (f *feed) Next(*[pkt.NumClasses]bool) *pkt.Packet {
	if f.remaining == 0 {
		return nil
	}
	f.remaining--
	return f.pool.NewData(1, 1, 2, 0, pkt.DefaultMTU)
}

// edgePort builds a sink-owned port with an idle source, the far end of a
// device port under test.
func edgePort(e *sim.Engine, pool *pkt.Pool, s *sink) *link.Port {
	p := link.NewPort(e, s, 0, 100*sim.Gbps, sim.Microsecond, pool)
	p.SetSource(&feed{pool: pool})
	return p
}

// linkTransfer streams frames back to back across one link: serialization
// event, wire pipe, delivery.
func linkTransfer() (batchFunc, checkFunc) {
	e, pool := sim.NewEngine(), pkt.NewPool()
	s := &sink{pool: pool}
	src := &feed{pool: pool}
	a := link.NewPort(e, s, 0, 100*sim.Gbps, sim.Microsecond, pool)
	a.SetSource(src)
	link.Connect(a, edgePort(e, pool, s))
	batch := whole(func(ops int) {
		src.remaining = ops
		a.Kick()
		e.Run()
	})
	return batch, func(total int) error {
		if s.got != total || pool.Outstanding() != 0 {
			return fmt.Errorf("delivered %d of %d frames, %d outstanding", s.got, total, pool.Outstanding())
		}
		return nil
	}
}

// linkPause sends PFC pause/resume frames across one link; one operation is
// one MAC-injected frame, launched, delivered and applied.
func linkPause() (batchFunc, checkFunc) {
	e, pool := sim.NewEngine(), pkt.NewPool()
	s := &sink{pool: pool}
	a, z := edgePort(e, pool, s), edgePort(e, pool, s)
	link.Connect(a, z)
	batch := func(ops int) (int, time.Duration) {
		ops -= ops % 2
		return ops, timeIt(func() {
			for i := 0; i < ops; i += 2 {
				a.SendPause(pkt.ClassData, true)
				a.SendPause(pkt.ClassData, false)
				if i%64 == 0 {
					e.Run()
				}
			}
			e.Run()
		})
	}
	return batch, func(total int) error {
		if z.PauseRx != int64(total/2) || z.Paused(pkt.ClassData) || pool.Outstanding() != 0 {
			return fmt.Errorf("peer saw %d pauses for %d frames, paused=%v, %d outstanding", z.PauseRx, total, z.Paused(pkt.ClassData), pool.Outstanding())
		}
		return nil
	}
}

// --- fabric ------------------------------------------------------------------

// fabricForward pushes data through one switch: routing, admission, ECN,
// FIFO enqueue/dequeue, PFC accounting, link transmission — and INT stamping
// when intOn.
func fabricForward(intOn bool) microSetup {
	return func() (batchFunc, checkFunc) {
		e, pool := sim.NewEngine(), pkt.NewPool()
		sw := fabric.New(e, pool, fabric.Config{
			ID: 100, BufferBytes: 22 << 20,
			ECNKmin: 100 << 10, ECNKmax: 400 << 10, ECNPmax: 0.2,
			PFCEnabled: true, PFCXoff: 512 << 10, PFCXon: 256 << 10,
			INTEnabled: intOn, Seed: 1,
		})
		s := &sink{pool: pool}
		link.Connect(sw.AddPort(100*sim.Gbps, sim.Microsecond), edgePort(e, pool, s))
		link.Connect(sw.AddPort(100*sim.Gbps, sim.Microsecond), edgePort(e, pool, s))
		sw.AddRoute(2, 1)
		batch := whole(func(ops int) {
			for i := 0; i < ops; i++ {
				sw.Receive(pool.NewData(1, 1, 2, 0, pkt.DefaultMTU), sw.Port(0))
				if i%32 == 31 {
					e.Run()
				}
			}
			e.Run()
		})
		return batch, func(total int) error {
			if s.got != total || sw.RxData != int64(total) || sw.Drops != 0 || pool.Outstanding() != 0 {
				return fmt.Errorf("delivered %d of %d (rx %d, drops %d, %d outstanding)", s.got, total, sw.RxData, sw.Drops, pool.Outstanding())
			}
			return nil
		}
	}
}

// --- dci ---------------------------------------------------------------------

// newDCI builds an MLCC DCI switch with port 0 facing the datacenter (host
// 2 behind it) and port 1 the long haul (host 1 beyond it).
func newDCI(e *sim.Engine, pool *pkt.Pool, s *sink) *dci.Switch {
	dq := core.DefaultDQMParams()
	dq.RTTc, dq.RTTd = 6*sim.Millisecond, 20*sim.Microsecond
	dq.MTU, dq.MaxRate = pkt.DefaultMTU, 25*sim.Gbps
	sw := dci.New(e, pool, dci.Config{
		Fabric:       fabric.Config{ID: 300, BufferBytes: 128 << 20, Seed: 1},
		LongHaulPort: 1, MLCC: true, DQM: dq, InitRate: 25 * sim.Gbps,
	})
	link.Connect(sw.AddPort(100*sim.Gbps, sim.Microsecond), edgePort(e, pool, s))
	link.Connect(sw.AddPort(100*sim.Gbps, sim.Microsecond), edgePort(e, pool, s))
	sw.AddRoute(2, 0)
	sw.AddRoute(1, 1)
	sw.Finalize()
	return sw
}

// dciPFQ is the receiver-side role: data arriving from the long haul is
// queued per flow, paced out at the credit rate, stamped with credit and a
// fresh INT record, and advances its flow's DQM. With 256 live flows the
// round-robin scan over the PFQ set is part of every dequeue.
func dciPFQ(flows int) microSetup {
	return func() (batchFunc, checkFunc) {
		e, pool := sim.NewEngine(), pkt.NewPool()
		s := &sink{pool: pool}
		sw := newDCI(e, pool, s)
		batch := func(ops int) (int, time.Duration) {
			ops = (ops + flows - 1) / flows * flows // every flow sends the same share
			return ops, timeIt(func() {
				for i := 0; i < ops; i++ {
					sw.Receive(pool.NewData(pkt.FlowID(1+i%flows), 1, 2, 0, pkt.DefaultMTU), sw.Port(1))
					if i%256 == 255 {
						e.Run()
					}
				}
				e.Run()
			})
		}
		return batch, func(total int) error {
			if s.got != total || sw.ActivePFQs() != flows || sw.PFQTotalBacklog() != 0 || pool.Outstanding() != 0 {
				return fmt.Errorf("delivered %d of %d, %d PFQs (want %d), backlog %d, %d outstanding",
					s.got, total, sw.ActivePFQs(), flows, sw.PFQTotalBacklog(), pool.Outstanding())
			}
			return nil
		}
	}
}

// dciReflect is the sender-side role: data leaving through the long haul has
// its three-hop INT stack copied into a Switch-INT frame back to the sender
// and cleared. One operation is one data packet and the frame it spawns.
func dciReflect() (batchFunc, checkFunc) {
	e, pool := sim.NewEngine(), pkt.NewPool()
	s := &sink{pool: pool}
	sw := newDCI(e, pool, s)
	batch := whole(func(ops int) {
		for i := 0; i < ops; i++ {
			p := pool.NewData(1, 2, 1, 0, pkt.DefaultMTU)
			for h := 0; h < 3; h++ {
				p.AddHop(pkt.INTHop{Node: pkt.NodeID(100 + h), QLen: 1000, TxBytes: int64(i) * 1000, TS: e.Now(), Band: 100 * sim.Gbps})
			}
			sw.Receive(p, sw.Port(0))
			if i%32 == 31 {
				e.Run()
			}
		}
		e.Run()
	})
	return batch, func(total int) error {
		if s.got != 2*total || sw.SwitchINTSent != int64(total) || pool.Outstanding() != 0 {
			return fmt.Errorf("delivered %d frames for %d packets, %d Switch-INT sent, %d outstanding", s.got, total, sw.SwitchINTSent, pool.Outstanding())
		}
		return nil
	}
}

// --- core and cc -------------------------------------------------------------

// intPath is a synthetic INT stack whose every hop advances in time and
// transmitted bytes from one sample to the next, so estimators take their
// full update path instead of rejecting a duplicate.
type intPath struct {
	hops []pkt.INTHop
	n    int64
}

func newINTPath(hops int) *intPath {
	p := &intPath{hops: make([]pkt.INTHop, hops)}
	for i := range p.hops {
		p.hops[i] = pkt.INTHop{Node: pkt.NodeID(100 + i), Band: 100 * sim.Gbps}
	}
	return p
}

// step advances the path by one MTU at ~80% utilisation with a queue that
// breathes, and returns the sample's time.
func (p *intPath) step() sim.Time {
	p.n++
	now := sim.Time(p.n) * 100 * sim.Nanosecond
	for i := range p.hops {
		h := &p.hops[i]
		h.TS = now
		h.TxBytes += pkt.DefaultMTU
		h.QLen = (p.n % 16) * pkt.DefaultMTU
	}
	return now
}

func benchFlow(cross bool) cc.FlowInfo {
	f := cc.FlowInfo{
		ID: 1, Src: 1, Dst: 2, Size: 1 << 40,
		LinkRate: 25 * sim.Gbps, MTU: pkt.DefaultMTU,
		BaseRTT: 20 * sim.Microsecond, NearRTT: 14 * sim.Microsecond, FarRTT: 14 * sim.Microsecond,
		CrossDC: cross,
	}
	if cross {
		f.BaseRTT = 6 * sim.Millisecond
	}
	return f
}

func mlccParams() core.Params {
	p := core.DefaultParams()
	p.DQM.RTTc, p.DQM.RTTd = 6*sim.Millisecond, 20*sim.Microsecond
	p.DQM.MTU, p.DQM.MaxRate = pkt.DefaultMTU, 25*sim.Gbps
	return p
}

// rateInRange is the senders' shared post-condition: whatever the feedback,
// the pacing rate stays inside [MinRate, line rate].
func rateInRange(calls *int, s cc.Sender, f cc.FlowInfo) func(int) error {
	return func(total int) error {
		if r := s.Rate(); *calls != total || r < cc.MinRate || r > f.LinkRate {
			return fmt.Errorf("%d of %d calls made, rate %v outside [%v, %v]", *calls, total, r, cc.MinRate, f.LinkRate)
		}
		return nil
	}
}

func coreDQMRound() (batchFunc, checkFunc) {
	d := core.NewDQM(mlccParams().DQM, 25*sim.Gbps)
	batch := whole(func(ops int) {
		for i := 0; i < ops; i++ {
			d.OnCreditRound(sim.Rate(10+i%15)*sim.Gbps, int64(i%64)<<10)
		}
	})
	return batch, func(total int) error {
		if d.Rounds != int64(total) {
			return fmt.Errorf("%d of %d rounds counted", d.Rounds, total)
		}
		return nil
	}
}

func coreDQMPktOut() (batchFunc, checkFunc) {
	d := core.NewDQM(mlccParams().DQM, 25*sim.Gbps)
	d.OnCreditRound(20*sim.Gbps, 1<<20)
	batch := whole(func(ops int) {
		for i := 0; i < ops; i++ {
			d.OnPacketOut()
		}
	})
	return batch, func(int) error {
		if r := d.Smoothed(); r < cc.MinRate || r > 25*sim.Gbps {
			return fmt.Errorf("smoothed rate %v out of range", r)
		}
		return nil
	}
}

// coreSenderOnAck is MLCC's intra-DC path: the echoed five-hop INT stack
// drives the end-to-end micro loop (cross-DC ACKs only copy a rate field).
func coreSenderOnAck() (batchFunc, checkFunc) {
	f := benchFlow(false)
	s := core.NewSender(mlccParams())(f)
	path := newINTPath(5)
	ack := &pkt.Packet{Kind: pkt.Ack, Flow: 1}
	calls := 0
	batch := whole(func(ops int) {
		for i := 0; i < ops; i++ {
			now := path.step()
			ack.Hops, ack.Seq = path.hops, path.n*pkt.DefaultMTU
			s.OnAck(now, ack)
			calls++
		}
	})
	return batch, rateInRange(&calls, s, f)
}

// coreSenderOnSwitchINT is the near-source loop: three sender-side hops
// reflected by the DCI switch.
func coreSenderOnSwitchINT() (batchFunc, checkFunc) {
	f := benchFlow(true)
	s := core.NewSender(mlccParams())(f)
	path := newINTPath(3)
	frame := &pkt.Packet{Kind: pkt.SwitchINT, Flow: 1}
	calls := 0
	batch := whole(func(ops int) {
		for i := 0; i < ops; i++ {
			now := path.step()
			frame.Hops = path.hops
			s.OnSwitchINT(now, frame)
			calls++
		}
	})
	return batch, rateInRange(&calls, s, f)
}

// coreReceiverOnData is the credit loop at the receiving host: every data
// packet feeds the receiver-side hops to the controller, and every 16th
// carries the credit that closes a round and publishes a fresh R_credit.
func coreReceiverOnData() (batchFunc, checkFunc) {
	r := core.NewReceiver(mlccParams())(benchFlow(true)).(*core.Receiver)
	path := newINTPath(4)
	data := &pkt.Packet{Kind: pkt.Data, Flow: 1, Size: pkt.DefaultMTU}
	ack := &pkt.Packet{Kind: pkt.Ack, Flow: 1}
	batch := whole(func(ops int) {
		for i := 0; i < ops; i++ {
			now := path.step()
			data.Hops = path.hops
			if i%16 == 0 {
				data.CD = ack.CR // the DCI switch caught up with our last credit
			}
			r.OnData(now, data, ack)
		}
	})
	return batch, func(total int) error {
		if want := int64(total / 16); r.Rounds() < want {
			return fmt.Errorf("%d credit rounds, want at least %d", r.Rounds(), want)
		}
		return nil
	}
}

// ccOnAck feeds one baseline algorithm's sender a five-hop-INT ACK stream.
func ccOnAck(alg string) microSetup {
	return func() (batchFunc, checkFunc) {
		f := benchFlow(false)
		var s cc.Sender
		switch alg {
		case "dcqcn":
			// The engine is never run: the sender's timers stay armed and
			// idle, as they do between ticks in a simulation.
			s = dcqcn.New(sim.NewEngine(), dcqcn.DefaultParams())(f)
		case "timely":
			s = timely.New(timely.DefaultParams())(f)
		case "hpcc":
			s = hpcc.New(hpcc.DefaultParams())(f)
		case "powertcp":
			s = powertcp.New(powertcp.DefaultParams())(f)
		}
		path := newINTPath(5)
		ack := &pkt.Packet{Kind: pkt.Ack, Flow: 1}
		calls := 0
		batch := whole(func(ops int) {
			for i := 0; i < ops; i++ {
				now := path.step()
				ack.Hops, ack.Seq = path.hops, path.n*pkt.DefaultMTU
				// An RTT that breathes between 20 and 35 µs keeps Timely's
				// gradient engine switching branches.
				ack.EchoTS = now - sim.Time(20+path.n%16)*sim.Microsecond
				s.OnAck(now+40*sim.Microsecond, ack)
				calls++
			}
		})
		return batch, rateInRange(&calls, s, f)
	}
}

// ccDCQCNOnCNP is DCQCN's decrease path: the rate cut plus the cancel and
// re-arm of the rate-increase timer.
func ccDCQCNOnCNP() (batchFunc, checkFunc) {
	f := benchFlow(false)
	e := sim.NewEngine()
	s := dcqcn.New(e, dcqcn.DefaultParams())(f)
	calls := 0
	batch := whole(func(ops int) {
		for i := 0; i < ops; i++ {
			s.OnCNP(e.Now())
			calls++
		}
	})
	return batch, rateInRange(&calls, s, f)
}

// --- host --------------------------------------------------------------------

// lineRate is a congestion controller that never reacts, so the host drivers
// price the host layer alone.
type lineRate struct{ r sim.Rate }

func (l lineRate) OnAck(sim.Time, *pkt.Packet)       {}
func (l lineRate) OnCNP(sim.Time)                    {}
func (l lineRate) OnSwitchINT(sim.Time, *pkt.Packet) {}
func (l lineRate) Rate() sim.Rate                    { return l.r }

// hostPairFixture is two hosts cabled back to back, sharing one flow table.
type hostPairFixture struct {
	e     *sim.Engine
	pool  *pkt.Pool
	table *host.Table
	h     [2]*host.Host
	done  int
}

func newHostPair() *hostPairFixture {
	fx := &hostPairFixture{e: sim.NewEngine(), pool: pkt.NewPool(), table: host.NewTable()}
	factory := func(f cc.FlowInfo) cc.Sender { return lineRate{f.LinkRate} }
	for i := range fx.h {
		cfg := host.Config{ID: pkt.NodeID(1 + i), Rate: 100 * sim.Gbps, MTU: pkt.DefaultMTU}
		fx.h[i] = host.New(fx.e, fx.pool, cfg, fx.table, factory, nil, sim.Microsecond)
		fx.h[i].OnFlowDone = func(*host.Flow) { fx.done++ }
	}
	link.Connect(fx.h[0].Port(), fx.h[1].Port())
	return fx
}

func (fx *hostPairFixture) flow(src int, size int64, start sim.Time) *host.Flow {
	return fx.table.Add(cc.FlowInfo{
		Src: pkt.NodeID(1 + src), Dst: pkt.NodeID(2 - src), Size: size,
		LinkRate: 100 * sim.Gbps, MTU: pkt.DefaultMTU, BaseRTT: 4 * sim.Microsecond,
	}, start)
}

// hostPair runs one long flow between the pair: pacing, emit, receive,
// per-packet ACK, cumulative-ack processing, RTO re-arming. One operation is
// one data packet and its ACK.
func hostPair() (batchFunc, checkFunc) {
	fx := newHostPair()
	flows := 0
	batch := whole(func(ops int) {
		fx.h[0].StartFlow(fx.flow(0, int64(ops)*pkt.DefaultMTU, fx.e.Now()))
		flows++
		fx.e.Run()
	})
	return batch, func(total int) error {
		if fx.done != flows || fx.h[1].RecvData != int64(total) || fx.h[0].Retransmits != 0 || fx.pool.Outstanding() != 0 {
			return fmt.Errorf("%d of %d flows done, %d of %d packets received, %d retransmits, %d outstanding",
				fx.done, flows, fx.h[1].RecvData, total, fx.h[0].Retransmits, fx.pool.Outstanding())
		}
		return nil
	}
}

// hostChurn starts many one-packet flows, alternating direction: flow-table
// insert, sender and receiver state set-up and teardown, RTO arm and cancel.
// One operation is one flow from registration to completion.
func hostChurn() (batchFunc, checkFunc) {
	fx := newHostPair()
	batch := whole(func(ops int) {
		for i := 0; i < ops; i++ {
			start := fx.e.Now() + sim.Time(i)*200*sim.Nanosecond
			f, h := fx.flow(i%2, pkt.DefaultMTU, start), fx.h[i%2]
			fx.e.At(start, func() { h.StartFlow(f) })
		}
		fx.e.Run()
	})
	return batch, func(total int) error {
		if fx.done != total || fx.h[0].ActiveSends()+fx.h[1].ActiveSends() != 0 || fx.pool.Outstanding() != 0 {
			return fmt.Errorf("%d of %d flows done, %d still sending, %d outstanding",
				fx.done, total, fx.h[0].ActiveSends()+fx.h[1].ActiveSends(), fx.pool.Outstanding())
		}
		return nil
	}
}

// --- set-up layers -----------------------------------------------------------

func bigFabric() topo.Params {
	p := topo.DefaultParams().WithAlgorithm(topo.AlgMLCC)
	p.HostsPerLeaf = 32
	return p
}

func workloadGenerate() (batchFunc, checkFunc) {
	spec := workload.Spec{
		CDF: workload.Hadoop(), IntraLoad: 0.5, CrossLoad: 0.2,
		HostRate: 25 * sim.Gbps, CrossRate: 100 * sim.Gbps, Hosts: 256,
		Duration: sim.Millisecond, Seed: 1,
	}
	batch := func(ops int) (int, time.Duration) {
		n := 0
		d := timeIt(func() {
			for n < ops {
				spec.Seed++
				fl, err := workload.Generate(spec)
				if err != nil {
					panic(err) // fixed valid spec
				}
				n += len(fl)
			}
		})
		return n, d
	}
	return batch, func(int) error { return nil }
}

func topoBuild() (batchFunc, checkFunc) {
	hosts := 0
	batch := whole(func(ops int) {
		for i := 0; i < ops; i++ {
			hosts = topo.TwoDC(bigFabric()).NumHosts()
		}
	})
	return batch, func(int) error {
		if hosts != 256 {
			return fmt.Errorf("built %d hosts, want 256", hosts)
		}
		return nil
	}
}

// topoAddFlow registers flows on a fresh 256-host fabric per batch (built
// outside the timed region, so the event heap starts empty every time).
func topoAddFlow() (batchFunc, checkFunc) {
	registered := 0
	batch := func(ops int) (int, time.Duration) {
		n := topo.TwoDC(bigFabric())
		d := timeIt(func() {
			for i := 0; i < ops; i++ {
				src := i % 256
				n.AddFlow(src, (src+1+i%255)%256, 1<<20, sim.Time(i)*sim.Microsecond)
			}
		})
		registered += n.Table.Len()
		return ops, d
	}
	return batch, func(total int) error {
		if registered != total {
			return fmt.Errorf("%d of %d flows registered", registered, total)
		}
		return nil
	}
}

func statsPercentile() (batchFunc, checkFunc) {
	col := stats.NewFCTCollector()
	for i := 0; i < 100_000; i++ {
		col.Add(stats.FCTSample{Size: int64(i%1000)*1000 + 1, FCT: sim.Time(i%977+1) * sim.Microsecond, Cross: i%7 == 0})
	}
	var last sim.Time
	batch := whole(func(ops int) {
		for i := 0; i < ops; i++ {
			last, _ = col.Percentile(stats.Intra, 0.999)
		}
	})
	return batch, func(int) error {
		if last != 977*sim.Microsecond {
			return fmt.Errorf("p99.9 = %v, want 977µs", last)
		}
		return nil
	}
}
