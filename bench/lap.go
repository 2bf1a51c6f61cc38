package main

import (
	"fmt"
	"runtime"
	"time"

	"mlcc/internal/exp"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
)

// lapOpts selects how one lap simulates its workload's input. The input
// itself depends only on (workload, seed, scale).
type lapOpts struct {
	seed   int64
	scale  int
	shards int
	planes planes

	oneShot    bool    // advance each sub-run with a single Run(end): the reference the segmented laps must match
	sampleHeap bool    // sample the live heap once the last sub-run has reached its deadline
	tr         *tracer // nil on untraced laps
}

// algSlice is one algorithm's share of a lap: the wall time of its segments,
// the calibration kernel's time over the same stretch, and the two combined
// into reference-machine seconds.
type algSlice struct {
	alg      string
	wallS    float64
	calS     float64
	calIters int
	events   uint64
}

func (a algSlice) calibratedS() float64 { return calibrated(a.wallS, a.calIters, a.calS) }

// cal is the process's calibration kernel (see calib.go).
var cal = newCalibrator()

// counters are exact simulated-side counts summed over a lap's sub-runs;
// they must repeat bit for bit between laps of one input.
type counters struct {
	events, eventAllocs, eventRecycles     uint64
	rxData, ecnMarks, pfcPauses, drops     int64
	sentData, retransmits, outOfOrder      int64
	poolOutstanding                        int64
	flows, notDone                         int
	fctMeanUS, fctP99US, goodputGbps       float64
	pendingPeak, activePFQsPeak            int
	cancelledFracPeak, pfqBacklogPeakBytes float64
}

// lapResult is everything one lap measured.
type lapResult struct {
	segS  []float64 // wall seconds per segment, sub-runs concatenated
	segEv []uint64  // events fired inside each segment
	wallS float64   // Σ segS
	calS  float64   // Σ over sub-runs of reference-machine seconds: the lap's calibrated time

	mallocs, allocBytes uint64
	liveHeapBytes       uint64

	digest   uint64
	c        counters
	algs     []algSlice
	problems []string // audit, guard, drain and completion failures

	// Shard balance, from per-engine Fired() at every window boundary
	// (sharded laps only).
	windows      int
	maxShardEvts uint64 // Σ over windows of the busiest shard's events
}

// boundaries returns the simulated instants a sub-run pauses at. Sharded
// laps pause once per lookahead window — exactly where the barrier scheduler
// pauses anyway, so segmentation adds no barrier.
func boundaries(w *workloadDef, n *topo.Network, o lapOpts) []sim.Time {
	end := w.end
	if o.oneShot {
		return []sim.Time{end}
	}
	step := end / sim.Time(w.segments)
	if n.ShardCount() > 1 {
		step = n.P.LongHaulDelay
	}
	var out []sim.Time
	for t := step; t < end; t += step {
		out = append(out, t)
	}
	return append(out, end)
}

// setUp builds one sub-run's network, generates its flows on it and
// registers them: everything a lap does before the first event fires.
func setUp(w *workloadDef, o lapOpts, alg string, lap int) (*topo.Network, int) {
	sp := o.tr.begin("topo_build", lap)
	p := w.params()
	p.Seed = o.seed
	p.Shards = o.shards
	o.planes.apply(&p)
	p = p.WithAlgorithm(alg)
	var n *topo.Network
	if w.dumbbell {
		n = topo.Dumbbell(p)
	} else {
		n = topo.TwoDC(p)
	}
	o.tr.end(sp)

	sp = o.tr.begin("workload_generate", lap)
	fl := w.flows(n, o.seed, o.scale)
	o.tr.end(sp)

	sp = o.tr.begin("topo_addflows", lap)
	for _, f := range fl {
		n.AddFlow(f.Src, f.Dst, f.Size, f.Start)
	}
	o.tr.end(sp)
	return n, len(fl)
}

// runLap simulates the workload's input once: for each algorithm, build the
// network, generate and register the flows, advance segment by segment,
// collect the flow table and verify it. Only the segment loop counts toward
// the lap's time and allocation deltas; set-up has a measurement of its own
// (measureSetup).
func runLap(w *workloadDef, o lapOpts) (res *lapResult) {
	res = &lapResult{}
	defer func() {
		if r := recover(); r != nil {
			res.problems = append(res.problems, fmt.Sprintf("panic: %v", r))
		}
	}()
	lap := o.tr.begin("lap", 0)
	defer o.tr.end(lap)

	dg := exp.NewDigest()
	fct := stats.NewFCTCollector()
	var goodput float64 // Σ over sub-runs of delivered bits per simulated second
	for i, alg := range w.algs {
		var n *topo.Network
		var flows int
		var ms0, ms1 runtime.MemStats

		o.tr.phase("setup", func() { n, flows = setUp(w, o, alg, lap) })
		if got := n.ShardCount(); got != max(o.shards, 1) {
			res.problems = append(res.problems, fmt.Sprintf("%s: built on %d shards, want %d", alg, got, o.shards))
		}

		bounds := boundaries(w, n, o)
		prevFired := make([]uint64, len(n.Engines))
		slice := algSlice{alg: alg}
		calIters := max(calItersPerSubRun/o.scale/len(bounds), 16)
		simSpan := o.tr.begin("simulate", lap)
		o.tr.phase("simulate", func() {
			runtime.ReadMemStats(&ms0)
			for _, t := range bounds {
				seg := o.tr.begin("segment", simSpan)
				t0 := time.Now()
				n.Run(t)
				d := time.Since(t0).Seconds()
				o.tr.end(seg)

				// Boundary reads are outside the timed region.
				var fired, busiest uint64
				for e, eng := range n.Engines {
					f := eng.Fired() - prevFired[e]
					prevFired[e] += f
					fired += f
					busiest = max(busiest, f)
					// Below the engine's compaction floor the ratio is a
					// handful of dead timers over a handful of events.
					if raw := eng.PendingRaw(); raw >= 64 {
						res.c.cancelledFracPeak = max(res.c.cancelledFracPeak, float64(raw-eng.Pending())/float64(raw))
					}
				}
				res.segS = append(res.segS, d)
				res.segEv = append(res.segEv, fired)
				slice.wallS += d
				res.maxShardEvts += busiest
				res.c.pendingPeak = max(res.c.pendingPeak, n.PendingEvents())
				var pfqs int
				var backlog int64
				for _, d := range n.DCIs {
					pfqs += d.ActivePFQs()
					backlog += d.PFQTotalBacklog()
				}
				res.c.activePFQsPeak = max(res.c.activePFQsPeak, pfqs)
				res.c.pfqBacklogPeakBytes = max(res.c.pfqBacklogPeakBytes, float64(backlog))

				// A slice of the calibration kernel after every segment
				// samples the machine's speed across the whole sub-run.
				if o.tr == nil {
					slice.calS += cal.run(calIters).Seconds()
				} else {
					// Labelled, so the profile table can leave it out.
					o.tr.phase("calibrate", func() { slice.calS += cal.run(calIters).Seconds() })
				}
				slice.calIters += calIters
			}
			runtime.ReadMemStats(&ms1)
		})
		o.tr.end(simSpan)
		if o.sampleHeap && i == len(w.algs)-1 {
			// The drained network is still referenced: pools, rings and
			// tables sit at their high-water marks, which is the host memory
			// this simulation needed.
			var hs runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&hs)
			res.liveHeapBytes = hs.HeapAlloc
		}
		if n.ShardCount() > 1 {
			res.windows += len(bounds)
		}
		slice.events = n.Fired()
		res.wallS += slice.wallS
		res.calS += slice.calibratedS()
		res.mallocs += ms1.Mallocs - ms0.Mallocs
		res.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		res.algs = append(res.algs, slice)

		sp := o.tr.begin("collect", lap)
		o.tr.phase("collect", func() {
			res.c.events += n.Fired()
			for _, e := range n.Engines {
				res.c.eventAllocs += e.EventAllocs()
				res.c.eventRecycles += e.EventRecycles()
			}
			for _, sw := range n.Leaves {
				res.c.addSwitch(sw.RxData, sw.Marked, sw.PFCPauses, sw.Drops)
			}
			for _, sw := range n.Spines {
				res.c.addSwitch(sw.RxData, sw.Marked, sw.PFCPauses, sw.Drops)
			}
			for _, sw := range n.DCIs {
				res.c.addSwitch(sw.RxData, sw.Marked, sw.PFCPauses, sw.Drops)
			}
			for _, h := range n.Hosts {
				res.c.sentData += h.SentData
				res.c.retransmits += h.Retransmits
				res.c.outOfOrder += h.OutOfOrder
			}
			for _, pl := range n.Pools {
				res.c.poolOutstanding += pl.Outstanding()
			}
			res.c.flows += flows

			// The same fold as exp.DeterminismDigest, in flow-ID order.
			var firstStart, lastFinish sim.Time
			var bytesDone int64
			dg.Add(n.Fired())
			dg.Add(uint64(n.Now()))
			dg.Add(uint64(n.Table.Len()))
			for id := 1; id <= n.Table.Len(); id++ {
				f := n.Table.Get(pkt.FlowID(id))
				dg.Add(uint64(f.Info.ID))
				if f.Done {
					dg.Add(1)
					fct.Add(stats.FCTSample{Size: f.Info.Size, FCT: f.FCT(), Cross: f.Info.CrossDC, Start: f.Start})
					bytesDone += f.Info.Size
					lastFinish = max(lastFinish, f.FinishAt)
					if bytesDone == f.Info.Size || f.Start < firstStart {
						firstStart = f.Start
					}
				} else {
					dg.Add(0)
					res.c.notDone++
				}
				dg.Add(uint64(f.FinishAt))
				dg.Add(uint64(f.RxBytes))
			}
			if span := lastFinish - firstStart; span > 0 {
				goodput += float64(bytesDone) * 8 / span.Seconds()
			}
		})
		o.tr.end(sp)

		sp = o.tr.begin("verify", lap)
		o.tr.phase("verify", func() {
			if !n.Drained() {
				res.problems = append(res.problems, fmt.Sprintf("%s: network not drained at %v", alg, n.Now()))
			}
			for _, p := range n.AuditProblems() {
				res.problems = append(res.problems, fmt.Sprintf("%s: audit: %s", alg, p))
			}
			if halted, why := n.Halted(); halted {
				res.problems = append(res.problems, fmt.Sprintf("%s: guard halted the run: %s", alg, why))
			}
		})
		o.tr.end(sp)
	}
	if res.c.notDone > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d of %d flows not done at the deadline", res.c.notDone, res.c.flows))
	}
	res.digest = dg.Sum()
	if mean, ok := fct.Avg(nil); ok {
		res.c.fctMeanUS = mean.Micros()
	}
	if p99, ok := fct.Percentile(nil, 0.99); ok {
		res.c.fctP99US = p99.Micros()
	}
	res.c.goodputGbps = goodput / float64(len(w.algs)) / 1e9
	return res
}

func (c *counters) addSwitch(rxData, marked, pauses, drops int64) {
	c.rxData += rxData
	c.ecnMarks += marked
	c.pfcPauses += pauses
	c.drops += drops
}
