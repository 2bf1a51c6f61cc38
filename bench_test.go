package mlcc

// The figure benchmarks regenerate the data behind every table and figure of
// the paper's evaluation at Quick scale (see internal/exp); run them with
//
//	go test -bench=Fig -benchtime=1x
//
// Each benchmark reports the headline quantities of its figure via
// b.ReportMetric, so `-bench` output doubles as a results table. The
// micro-benchmarks at the bottom track simulator performance (events/sec,
// allocation behaviour), which bounds how large a topology the harness can
// sweep.

import (
	"fmt"
	"testing"
	"time"

	"mlcc/internal/audit"
	"mlcc/internal/exp"
	"mlcc/internal/fabric"
	"mlcc/internal/link"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
	"mlcc/internal/workload"
)

// runExperiment executes a registered experiment once per bench iteration.
func runExperiment(b *testing.B, id string) *exp.Report {
	b.Helper()
	e, ok := exp.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var rep *exp.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = e.Run(exp.Config{Scale: exp.Quick, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// metric pulls a table cell into the benchmark output.
func metric(b *testing.B, rep *exp.Report, table int, row, col, name string) {
	b.Helper()
	if table >= len(rep.Tables) {
		return
	}
	if v, ok := rep.Tables[table].Get(row, col); ok {
		b.ReportMetric(v, name)
	}
}

func BenchmarkFig02Motivation(b *testing.B) {
	rep := runExperiment(b, "fig2")
	metric(b, rep, 0, "dcqcn", "pfcPauses", "dcqcn-pfc")
	metric(b, rep, 0, "dcqcn", "peakLeafQMB", "dcqcn-peakQ-MB")
}

func BenchmarkFig03Motivation(b *testing.B) {
	rep := runExperiment(b, "fig3")
	metric(b, rep, 0, "dcqcn", "intraShare", "dcqcn-intraShare")
	metric(b, rep, 0, "mlcc", "intraShare", "mlcc-intraShare")
}

func BenchmarkFig04Motivation(b *testing.B) {
	rep := runExperiment(b, "fig4")
	metric(b, rep, 0, "dcqcn", "peakQMB", "dcqcn-peakQ-MB")
	metric(b, rep, 0, "dcqcn", "avgQMB", "dcqcn-avgQ-MB")
}

func BenchmarkFig07Convergence(b *testing.B) {
	rep := runExperiment(b, "fig7")
	metric(b, rep, 0, "simultaneous", "jain", "jain-simultaneous")
	metric(b, rep, 0, "sequential", "jain", "jain-sequential")
	metric(b, rep, 0, "simultaneous", "mean", "mean-Gbps")
}

func BenchmarkFig08Convergence(b *testing.B) {
	rep := runExperiment(b, "fig8")
	metric(b, rep, 0, "simultaneous", "jain", "jain-simultaneous")
	metric(b, rep, 0, "simultaneous", "dciQMB", "dciQ-MB")
}

func BenchmarkFig09DQMTheta(b *testing.B) {
	rep := runExperiment(b, "fig9")
	metric(b, rep, 0, "18.000ms", "peak", "theta18-peakQ-MB")
	metric(b, rep, 0, "18.000ms", "steady", "theta18-steadyQ-MB")
	metric(b, rep, 0, "18.000ms", "perFlowSteady", "theta18-perflowQ-MB")
}

func BenchmarkFig10DQMSequential(b *testing.B) {
	rep := runExperiment(b, "fig10")
	metric(b, rep, 0, "theta=18ms", "peak", "peakQ-MB")
	metric(b, rep, 0, "theta=18ms", "final", "finalQ-MB")
}

func BenchmarkFig11HeavyLoad(b *testing.B) {
	rep := runExperiment(b, "fig11")
	metric(b, rep, 0, "mlcc", "intra", "ws-mlcc-intra-ms")
	metric(b, rep, 0, "dcqcn", "intra", "ws-dcqcn-intra-ms")
	metric(b, rep, 1, "dcqcn", "intra", "ws-reduction-vs-dcqcn-pct")
}

func BenchmarkFig12LightLoad(b *testing.B) {
	rep := runExperiment(b, "fig12")
	metric(b, rep, 0, "mlcc", "intra", "ws-mlcc-intra-ms")
	metric(b, rep, 1, "dcqcn", "intra", "ws-reduction-vs-dcqcn-pct")
}

func BenchmarkFig13TailHeavy(b *testing.B) {
	rep := runExperiment(b, "fig13")
	metric(b, rep, 0, "mlcc", "<10KB", "ws-intra-small-p999-ms")
	metric(b, rep, 1, "mlcc", ">5M", "ws-cross-big-p999-ms")
}

func BenchmarkFig14TailLight(b *testing.B) {
	rep := runExperiment(b, "fig14")
	metric(b, rep, 0, "mlcc", "<10KB", "ws-intra-small-p999-ms")
}

func BenchmarkFig15ShortHaul(b *testing.B) {
	rep := runExperiment(b, "fig15")
	metric(b, rep, 0, "mlcc", "intra", "ws-mlcc-intra-ms")
	metric(b, rep, 1, "dcqcn", "intra", "ws-reduction-vs-dcqcn-pct")
}

func BenchmarkFig16Testbed(b *testing.B) {
	rep := runExperiment(b, "fig16")
	metric(b, rep, 0, "mlcc", "overall", "mlcc-overall-ms")
	metric(b, rep, 0, "dcqcn", "overall", "dcqcn-overall-ms")
}

// --- micro-benchmarks -------------------------------------------------------

// BenchmarkSimulatorThroughput measures raw engine throughput on a saturated
// two-DC network: simulated events per wall second bound every experiment.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := topo.DefaultParams().WithAlgorithm(topo.AlgMLCC)
		n := topo.TwoDC(p)
		for j := 0; j < 4; j++ {
			n.AddFlow(n.RackHost(1, j), n.RackHost(5, j), 1<<24, 0)
		}
		n.Run(5 * sim.Millisecond)
		b.ReportMetric(float64(n.Fired()), "events/op")
	}
}

// shardBenchRun executes the full-scale dumbbell workload (§4.6 shape at the
// paper's 32-hosts-per-rack scale) on the given shard count, with the
// conservation audit attached. It returns the wall time, total fired events,
// and the busiest single shard's fired events (the per-window critical path,
// which bounds parallel speedup at total/max).
func shardBenchRun(b *testing.B, shards int) (time.Duration, uint64, uint64) {
	b.Helper()
	p := topo.DefaultParams().WithAlgorithm(topo.AlgMLCC)
	p.HostsPerLeaf = 32
	p.HostRate = 100 * sim.Gbps
	p.Seed = 1
	p.Shards = shards
	p.Audit = audit.New()
	n := topo.Dumbbell(p)
	flows, err := workload.Generate(workload.Spec{
		CDF:       workload.Websearch(),
		IntraLoad: 0.5,
		CrossLoad: 0.2,
		HostRate:  n.P.HostRate,
		IntraRate: n.PerHostBisection(),
		CrossRate: n.P.FabricRate,
		Hosts:     n.NumHosts(),
		Duration:  5 * sim.Millisecond,
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, fs := range flows {
		n.AddFlow(fs.Src, fs.Dst, fs.Size, fs.Start)
	}
	t0 := time.Now()
	n.Run(60 * sim.Millisecond)
	wall := time.Since(t0)
	if got := n.ShardCount(); got != shards {
		b.Fatalf("network built with %d shards, want %d", got, shards)
	}
	if probs := n.AuditProblems(); len(probs) != 0 {
		b.Fatalf("shards=%d: conservation audit failed: %v", shards, probs)
	}
	var maxShard uint64
	for _, e := range n.Engines {
		if f := e.Fired(); f > maxShard {
			maxShard = f
		}
	}
	return wall, n.Fired(), maxShard
}

// BenchmarkShardSpeedup measures the tentpole's payoff: the same full-scale
// dumbbell workload on one engine versus one engine per DC. Both runs must
// fire the same event count (the determinism property) and close the merged
// conservation books. Reported metrics:
//
//   - "speedup": wall(shards=1)/wall(shards=2) as measured on this machine.
//     Needs ≥2 CPUs to show parallelism; on one CPU the residual gain comes
//     from halving the event-heap depth.
//   - "bound-speedup": total events / busiest shard's events — the
//     workload-balance bound the barrier design achieves given enough CPUs
//     (each window's wall time is its slowest shard).
func BenchmarkShardSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w1, f1, _ := shardBenchRun(b, 1)
		w2, f2, maxShard := shardBenchRun(b, 2)
		if f1 != f2 {
			b.Fatalf("event counts diverged: shards=1 fired %d, shards=2 fired %d", f1, f2)
		}
		b.ReportMetric(w1.Seconds()/w2.Seconds(), "speedup")
		b.ReportMetric(float64(f2)/float64(maxShard), "bound-speedup")
		b.ReportMetric(w1.Seconds()*1000, "single-ms")
		b.ReportMetric(w2.Seconds()*1000, "sharded-ms")
	}
}

// BenchmarkSingleFlowFCT measures the cost of one complete flow lifecycle.
func BenchmarkSingleFlowFCT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := topo.DefaultParams().WithAlgorithm(topo.AlgMLCC)
		n := topo.TwoDC(p)
		f := n.AddFlow(0, 20, 1<<20, 0)
		n.Run(50 * sim.Millisecond)
		if !f.Done {
			b.Fatal("flow incomplete")
		}
	}
}

// BenchmarkWorkloadGeneration measures the traffic generator.
func BenchmarkWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	spec := workload.Spec{
		CDF:       workload.Websearch(),
		IntraLoad: 0.5,
		CrossLoad: 0.2,
		HostRate:  25 * sim.Gbps,
		CrossRate: 100 * sim.Gbps,
		Hosts:     64,
		Duration:  5 * sim.Millisecond,
		Seed:      1,
	}
	for i := 0; i < b.N; i++ {
		flows, err := workload.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(flows) == 0 {
			b.Fatal("no flows")
		}
	}
}

// holdIncrements is the fixed delay table of the engine hold model, in
// nanoseconds: mostly a few serialization times (80 ns is one MTU at 100G)
// with a tail of propagation and timeout delays, the mix links, pacers and
// RTO timers put on the queue. A fixed table rather than a generator keeps
// the insert sequence identical from run to run and from commit to commit.
var holdIncrements = [...]sim.Time{
	80, 80, 5, 80, 320, 80, 1000, 80, 160, 80, 7, 80, 2000, 80, 640, 80,
	80, 240, 80, 13, 80, 5000, 80, 80, 400, 80, 1, 80, 20000, 80, 960, 80,
	80, 31, 80, 80, 1500, 80, 560, 80, 3000000, 80, 80, 100, 80, 10000, 80, 720,
	80, 2, 80, 80, 800, 80, 50000, 80, 19, 80, 1200, 80, 80, 480, 80, 100000,
}

// engineHold builds the classic hold model on a fresh engine: depth events
// stay pending and every firing schedules one more at the next table delay,
// so one step is one pop plus one push at that depth — the steady state of a
// running simulation. step(n) fires exactly n events.
func engineHold(depth int) (e *sim.Engine, step func(n int)) {
	e = sim.NewEngine()
	var i, left int
	var fn func()
	fn = func() {
		i++
		e.After(holdIncrements[i%len(holdIncrements)]*sim.Nanosecond, fn)
		if left--; left == 0 {
			e.Stop()
		}
	}
	for ; i < depth; i++ {
		e.After(holdIncrements[i%len(holdIncrements)]*sim.Nanosecond, fn)
	}
	return e, func(n int) {
		left = n
		e.Run()
	}
}

// BenchmarkEngineSchedule measures the cost of firing one event and
// scheduling its successor — the innermost operation of every simulation —
// at queue depths bracketing the 98–412 raw entries the bench workloads
// reach, plus one far beyond cache.
func BenchmarkEngineSchedule(b *testing.B) {
	for _, depth := range []int{64, 512, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			_, step := engineHold(depth)
			step(2 * depth) // every pooled Event and the queue slice at their steady size
			b.ResetTimer()
			step(b.N)
		})
	}
}

// TestEngineHoldAllocFree pins the engine's steady state at 0 allocs/op:
// events come from the free list and the queue slice never regrows.
func TestEngineHoldAllocFree(t *testing.T) {
	e, step := engineHold(512)
	step(1024)
	if n := testing.AllocsPerRun(100, func() { step(64) }); n != 0 {
		t.Errorf("hold model at depth 512 allocated %v per 64 events", n)
	}
	if e.Pending() != 512 {
		t.Errorf("Pending = %d, want the hold depth 512", e.Pending())
	}
}

// BenchmarkEngineCancelReschedule measures the pacing/timeout pattern used by
// hosts and PFQ disciplines: arm a timer, cancel it, arm a tighter one.
func BenchmarkEngineCancelReschedule(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := e.After(2*sim.Nanosecond, fn)
		t.Cancel()
		e.After(sim.Nanosecond, fn)
		if e.PendingRaw() > 1024 {
			e.Run()
		}
	}
	e.Run()
}

// benchSink counts and frees every delivered frame.
type benchSink struct {
	pool *pkt.Pool
	got  int64
}

func (s *benchSink) Receive(p *pkt.Packet, on *link.Port) {
	s.got++
	s.pool.Put(p)
}

// benchFeed emits a fixed number of MTU-sized data frames.
type benchFeed struct {
	pool      *pkt.Pool
	remaining int
}

func (f *benchFeed) Next(paused *[pkt.NumClasses]bool) *pkt.Packet {
	if f.remaining == 0 {
		return nil
	}
	f.remaining--
	return f.pool.NewData(1, 1, 2, 0, pkt.DefaultMTU)
}

// BenchmarkLinkTransfer measures the per-packet cost of the link layer:
// serialization event, wire queue, delivery. One op = one frame end to end.
// idle drains the wire after every frame (it never holds more than one);
// busy kicks once and streams b.N back-to-back frames, so the wire holds its
// full in-flight depth throughout — the case every loaded link of a real run
// is in, and the one idle cannot see. The pool and the engine's event free
// list are filled before the clock starts and the link itself has nothing to
// warm up, so both report 0 allocs/op even at -benchtime=1x.
func BenchmarkLinkTransfer(b *testing.B) {
	run := func(b *testing.B, burst int) {
		b.ReportAllocs()
		e := sim.NewEngine()
		pool := pkt.NewPool()
		sink := &benchSink{pool: pool}
		feed := &benchFeed{pool: pool}
		a := link.NewPort(e, sink, 0, 100*sim.Gbps, sim.Microsecond, pool)
		z := link.NewPort(e, sink, 0, 100*sim.Gbps, sim.Microsecond, pool)
		link.Connect(a, z)
		a.SetSource(feed)
		z.SetSource(&benchFeed{pool: pool})
		var warm pkt.Queue
		for i := 0; i < 64; i++ {
			warm.Push(pool.Get())
			e.After(0, func() {})
		}
		for p := warm.Pop(); p != nil; p = warm.Pop() {
			pool.Put(p)
		}
		e.Run()
		b.ResetTimer()
		for sent := 0; sent < b.N; sent += burst {
			feed.remaining = min(burst, b.N-sent)
			a.Kick()
			e.Run()
		}
		if sink.got != int64(b.N) {
			b.Fatalf("delivered %d frames, want %d", sink.got, b.N)
		}
	}
	b.Run("idle", func(b *testing.B) { run(b, 1) })
	b.Run("busy", func(b *testing.B) { run(b, b.N) })
}

// BenchmarkSwitchForward measures the per-packet cost of the fabric switch:
// admission, ECN, FIFO enqueue/dequeue, INT stamping, link transmission.
func BenchmarkSwitchForward(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	pool := pkt.NewPool()
	sw := fabric.New(e, pool, fabric.Config{
		ID: 100, BufferBytes: 22 << 20,
		ECNKmin: 100 << 10, ECNKmax: 400 << 10, ECNPmax: 0.2,
		INTEnabled: true, Seed: 1,
	})
	sink := &benchSink{pool: pool}
	idle := &benchFeed{pool: pool}
	p0 := sw.AddPort(100*sim.Gbps, sim.Microsecond)
	p1 := sw.AddPort(100*sim.Gbps, sim.Microsecond)
	e0 := link.NewPort(e, sink, 0, 100*sim.Gbps, sim.Microsecond, pool)
	e1 := link.NewPort(e, sink, 0, 100*sim.Gbps, sim.Microsecond, pool)
	e0.SetSource(idle)
	e1.SetSource(idle)
	link.Connect(p0, e0)
	link.Connect(p1, e1)
	sw.AddRoute(2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Receive(pool.NewData(1, 1, 2, 0, pkt.DefaultMTU), sw.Port(0))
		e.Run()
	}
	if sink.got != int64(b.N) {
		b.Fatalf("delivered %d frames, want %d", sink.got, b.N)
	}
}

// BenchmarkFCTCollector measures summary statistics on 100k samples.
func BenchmarkFCTCollector(b *testing.B) {
	col := stats.NewFCTCollector()
	for i := 0; i < 100_000; i++ {
		col.Add(stats.FCTSample{
			Size:  int64(i%1000)*1000 + 1,
			FCT:   sim.Time(i%977+1) * sim.Microsecond,
			Cross: i%7 == 0,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := col.Percentile(stats.Intra, 0.999); !ok {
			b.Fatal("no samples")
		}
	}
}
