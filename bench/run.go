package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"time"

	"mlcc/internal/sim"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	scale   int           // 1 in the benchmark; the smoke test shrinks inputs
	budget  time.Duration // measure for this long ...
	laps    int           // ... or, when > 0, for exactly this many laps
	profile []byte        // set by tracedRun: the traced laps' CPU profile, gzip-compressed
	tracer  *tracer       // set by tracedRun for the caller to write out
}

// runOutcome is what one pass (timed or traced) over one workload produced.
type runOutcome struct {
	metrics   map[string]metric
	attempted int      // flows registered over the measured laps
	failed    int      // flows that missed the deadline, or all flows of a lap that broke the gate
	gate      []string // correctness-gate failures; empty means correct

	laps, segments int
	lapRawS        []float64 // whole-lap wall time of every measured lap, in order
	lapCalS        []float64 // the same laps in reference-machine seconds
	setupRawS      []float64
	digest         uint64
	events         uint64
}

func (o *runOutcome) set(name string, v float64, unit string) {
	if _, dup := o.metrics[name]; dup {
		panic("bench: metric emitted twice: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		o.gate = append(o.gate, fmt.Sprintf("metric %s is %v", name, v))
		v = 0
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// lapSet accumulates laps of one configuration. Its headline reduction is
// lapS, the median lap in reference-machine seconds. Beside it stands the
// floor estimator: segment k does bit-identical work in every lap, so its
// cost is at most the least wall time any lap spent on it, and minS is the sum
// of those minima — raw wall time, what the machine could do at its best
// during this pass.
type lapSet struct {
	laps   []*lapResult
	segMin []float64
}

func (s *lapSet) add(r *lapResult) {
	if s.segMin == nil {
		s.segMin = append([]float64(nil), r.segS...)
	} else if len(r.segS) == len(s.segMin) {
		for k, d := range r.segS {
			s.segMin[k] = math.Min(s.segMin[k], d)
		}
	}
	s.laps = append(s.laps, r)
}

func (s *lapSet) lapS() float64 {
	return median(s.each(func(r *lapResult) float64 { return r.calS }))
}

func (s *lapSet) minS() float64 {
	var sum float64
	for _, d := range s.segMin {
		sum += d
	}
	return sum
}

func (s *lapSet) each(f func(*lapResult) float64) []float64 {
	out := make([]float64, len(s.laps))
	for i, r := range s.laps {
		out[i] = f(r)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gate checks one lap against the reference lap of the same input: same
// digest, same event count in every segment (when the segmentation matches),
// a clean lap of its own. It returns the failures.
func gate(what string, r, ref *lapResult) []string {
	var out []string
	for _, p := range r.problems {
		out = append(out, what+": "+p)
	}
	if r.c.poolOutstanding != 0 {
		out = append(out, fmt.Sprintf("%s: %d packets outstanding in the pools after the lap", what, r.c.poolOutstanding))
	}
	if ref == nil {
		return out
	}
	if r.digest != ref.digest {
		out = append(out, fmt.Sprintf("%s: model digest %#016x, reference %#016x", what, r.digest, ref.digest))
	}
	if r.c.events != ref.c.events {
		out = append(out, fmt.Sprintf("%s: fired %d events, reference %d", what, r.c.events, ref.c.events))
	}
	if len(r.segEv) == len(ref.segEv) {
		for k := range r.segEv {
			if r.segEv[k] != ref.segEv[k] {
				out = append(out, fmt.Sprintf("%s: segment %d fired %d events, reference %d", what, k, r.segEv[k], ref.segEv[k]))
				break
			}
		}
	}
	return out
}

// more reports whether a measuring loop that started at start should run the
// given round: exactly cfg.laps rounds when that is set, otherwise until the
// budget is spent, with a floor of three rounds whatever the budget.
func (cfg runConfig) more(round int, start time.Time) bool {
	if cfg.laps > 0 {
		return round < cfg.laps
	}
	return round < 3 || time.Since(start) < cfg.budget
}

// lapKind is one configuration of a workload's input that measure runs laps
// of; ref, when set, is the lap its laps must reproduce.
type lapKind struct {
	what string
	opts lapOpts
	ref  *lapResult
}

// measure runs laps until the budget is spent (or for exactly cfg.laps
// rounds), one lap of each kind per round so that a machine that speeds up or
// slows down over the seconds a pass takes does so under every kind alike. An
// untimed collection before each lap keeps one lap's garbage from being
// charged to the next. A lap that breaks the gate counts all its flows as
// failed. It returns one lap set per kind.
func measure(w *workloadDef, cfg runConfig, out *runOutcome, kinds ...lapKind) []*lapSet {
	sets := make([]*lapSet, len(kinds))
	for i := range sets {
		sets[i] = &lapSet{}
	}
	start := time.Now()
	for round := 0; cfg.more(round, start); round++ {
		for i, k := range kinds {
			runtime.GC()
			r := runLap(w, k.opts)
			sets[i].add(r)
			out.attempted += r.c.flows
			if bad := gate(fmt.Sprintf("%s lap %d", k.what, round), r, k.ref); len(bad) > 0 {
				out.gate = append(out.gate, bad...)
				out.failed += r.c.flows
			} else {
				out.failed += r.c.notDone
			}
		}
	}
	return sets
}

// opts returns the lap options of the workload as defined.
func (w *workloadDef) opts(cfg runConfig) lapOpts {
	return lapOpts{seed: cfg.seed, scale: cfg.scale, shards: w.shards, planes: w.planes}
}

// reference runs the untimed laps every pass starts with: a segmented
// warm-up lap, whose digest and per-segment event counts every later lap
// must reproduce, and a one-shot lap in the plainest configuration of the
// same input — one Run call, one engine, no planes — which must reach the
// same digest and event count. That single comparison carries three gate
// clauses: segmented ≡ one-shot, shards=2 ≡ shards=1, planes on ≡ planes off.
func reference(w *workloadDef, cfg runConfig, out *runOutcome) *lapResult {
	runtime.GC()
	warm := runLap(w, w.opts(cfg))
	out.gate = append(out.gate, gate("warm-up lap", warm, nil)...)

	runtime.GC()
	plain := runLap(w, lapOpts{seed: cfg.seed, scale: cfg.scale, shards: 1, oneShot: true})
	if plain.digest != warm.digest || plain.c.events != warm.c.events {
		out.gate = append(out.gate, fmt.Sprintf(
			"one-shot single-engine planes-off lap: digest %#016x events %d, segmented %s lap: digest %#016x events %d",
			plain.digest, plain.c.events, w.name, warm.digest, warm.c.events))
	}
	out.gate = append(out.gate, gate("one-shot reference lap", plain, nil)...)
	return warm
}

// timedRun is the --trace 0 pass: the end-to-end metrics, tracing off.
func timedRun(w *workloadDef, cfg runConfig) *runOutcome {
	out := &runOutcome{metrics: map[string]metric{}}
	ref := reference(w, cfg, out)

	// One extra untimed lap samples the live heap; its forced collection
	// would otherwise land inside a timed lap.
	o := w.opts(cfg)
	o.sampleHeap = true
	runtime.GC()
	heap := runLap(w, o)
	out.gate = append(out.gate, gate("live-heap lap", heap, ref)...)

	set := measure(w, cfg, out, lapKind{"timed", w.opts(cfg), ref})[0]
	out.fill(set, ref)

	setupS, samples := measureSetup(w, cfg)
	out.setupRawS = samples

	out.set("lap_s", set.lapS(), "s")
	out.set("alloc_mb_per_lap", median(set.each(func(r *lapResult) float64 { return float64(r.allocBytes) / 1e6 })), "MB")
	out.set("live_heap_mb", float64(heap.liveHeapBytes)/1e6, "MB")
	out.set("setup_s", setupS, "s")
	return out
}

// measureSetup times the workload's set-up — build every sub-run's topology,
// generate its flows, register them, attach the planes — back to back for
// half a second (16 to 200 times), the set-up calibration kernel after each.
// Set-up is a millisecond or so of pure allocation, and what an allocation
// costs depends on whether a collection cycle is running and whether the
// pages were ever touched; left alone, the same set-up reads anywhere within
// a factor of two. So the collector is parked for the stretch and run by
// hand, untimed, every eight samples, after a warm-up that has already
// faulted the pages in: what is measured is allocating, initialising and
// wiring, not collecting. The estimate is the lower quartile of the samples,
// which sits in the fast mode, over the lower quartile of the kernel's, in
// reference-machine seconds. It returns the estimate and the raw samples.
func measureSetup(w *workloadDef, cfg runConfig) (float64, []float64) {
	setUpAll := func() {
		for _, alg := range w.algs {
			setUp(w, w.opts(cfg), alg, 0)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 8; i++ {
		setUpAll()
	}
	var samples, kernel []float64
	start := time.Now()
	for i := 0; i < 200 && (i < 16 || time.Since(start) < 500*time.Millisecond); i++ {
		if i%8 == 0 {
			runtime.GC()
		}
		t0 := time.Now()
		setUpAll()
		samples = append(samples, time.Since(t0).Seconds())
		kernel = append(kernel, runSetupKernel().Seconds())
	}
	q1, _ := quartiles(samples)
	k1, _ := quartiles(kernel)
	return q1 * calRefSetupS / k1, samples
}

// fill records the bookkeeping every pass reports beside its metrics.
func (o *runOutcome) fill(set *lapSet, ref *lapResult) {
	o.laps = len(set.laps)
	o.segments = len(set.segMin)
	o.lapRawS = set.each(func(r *lapResult) float64 { return r.wallS })
	o.lapCalS = set.each(func(r *lapResult) float64 { return r.calS })
	o.digest = ref.digest
	o.events = ref.c.events
}

// tracedRun is the --trace 1 pass: every per-layer metric. The micro-drivers
// run first (a fixed ~2.5 s); three parts then share the budget: untraced
// laps (the baseline the tracing overhead is measured against, and the source
// of the exact counters) taking turns with laps of the same input at the
// other shard count, the workload's laps again with spans and a CPU profile
// on, and the plane-cost matrix.
func tracedRun(w *workloadDef, cfg *runConfig) *runOutcome {
	out := &runOutcome{metrics: map[string]metric{}}
	t0 := time.Now()
	for _, m := range runMicros(cfg.scale) {
		if m.err != nil {
			out.gate = append(out.gate, fmt.Sprintf("micro-driver %s: %v", m.name, m.err))
		}
		out.set(m.name, m.value, m.unit)
	}

	// share is that fraction of what the micro-drivers left of the budget.
	share := func(f float64) runConfig {
		part := *cfg
		part.budget = time.Duration(f * float64(cfg.budget-time.Since(t0)))
		return part
	}
	untraced, traced, matrix := share(0.45), share(0.25), share(0.3)

	ref := reference(w, *cfg, out)
	other := w.opts(*cfg)
	other.shards = 3 - w.shards
	// The other shard count segments the run differently, so its laps are
	// held to the digest and the event total, not the per-segment counts.
	sets := measure(w, untraced, out,
		lapKind{"untraced", w.opts(*cfg), ref},
		lapKind{fmt.Sprintf("shards=%d", other.shards), other, ref})
	plain, flip := sets[0], sets[1]
	out.fill(plain, ref)

	cfg.tracer = newTracer()
	withSpans := w.opts(*cfg)
	withSpans.tr = cfg.tracer
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		out.gate = append(out.gate, fmt.Sprintf("cpu profile: %v", err))
	}
	spans := measure(w, traced, out, lapKind{"traced", withSpans, ref})[0]
	pprof.StopCPUProfile()
	cfg.profile = prof.Bytes()

	out.counterMetrics(ref)
	out.algMetrics(plain)
	out.spanMetrics(cfg.tracer)
	var profiledS float64
	for _, r := range spans.laps {
		profiledS += r.wallS
	}
	out.profMetrics(cfg.profile, profiledS)
	out.shardMetrics(w, plain, flip)
	out.planeMetrics(matrix)

	out.set("bench.ns_per_event", plain.lapS()*1e9/float64(ref.c.events), "ns")
	out.set("bench.lap_min_s", plain.minS(), "s")
	out.set("bench.lap_p50_s", median(out.lapRawS), "s")
	out.set("bench.noise_ratio", median(out.lapRawS)/plain.minS(), "ratio")
	out.set("bench.cal_ns_per_iter", median(plain.each(func(r *lapResult) float64 {
		var calS, iters float64
		for _, a := range r.algs {
			calS += a.calS
			iters += float64(a.calIters)
		}
		return calS * 1e9 / iters
	})), "ns")
	out.set("bench.laps", float64(len(plain.laps)), "count")
	out.set("bench.allocs_per_lap", median(plain.each(func(r *lapResult) float64 { return float64(r.mallocs) })), "count")
	out.set("bench.trace_overhead_frac", spans.lapS()/plain.lapS()-1, "ratio")
	out.set("bench.flows_failed_share", float64(out.failed)/float64(out.attempted), "ratio")
	return out
}

// counterMetrics reports the exact simulated-side counts of one lap. They
// repeat bit for bit (the gate enforced it), so a host-speed change must
// leave every one of them identical.
func (o *runOutcome) counterMetrics(ref *lapResult) {
	c := ref.c
	o.set("sim.events", float64(c.events), "count")
	o.set("sim.event_allocs", float64(c.eventAllocs), "count")
	o.set("sim.event_recycles", float64(c.eventRecycles), "count")
	o.set("sim.pending_peak", float64(c.pendingPeak), "count")
	o.set("sim.cancelled_frac_peak", c.cancelledFracPeak, "ratio")
	o.set("pkt.pool_outstanding_end", float64(c.poolOutstanding), "count")
	o.set("fabric.rx_data", float64(c.rxData), "count")
	o.set("fabric.ecn_marks", float64(c.ecnMarks), "count")
	o.set("fabric.pfc_pauses", float64(c.pfcPauses), "count")
	o.set("fabric.drops", float64(c.drops), "count")
	o.set("dci.active_pfqs_peak", float64(c.activePFQsPeak), "count")
	o.set("dci.pfq_backlog_peak_mb", c.pfqBacklogPeakBytes/1e6, "MB")
	o.set("host.sent_data", float64(c.sentData), "count")
	o.set("host.retransmits", float64(c.retransmits), "count")
	o.set("host.out_of_order", float64(c.outOfOrder), "count")
	// A float64 holds 53 bits exactly; the full digest is in the result file.
	o.set("model.digest", float64(ref.digest&(1<<48-1)), "hash48")
	o.set("model.fct_mean_us", c.fctMeanUS, "us")
	o.set("model.fct_p99_us", c.fctP99US, "us")
	o.set("model.goodput_gbps", c.goodputGbps, "Gbps")
}

// benchAlgs are the algorithms with a cc.<alg>.* row, in report order.
var benchAlgs = []string{"dcqcn", "timely", "hpcc", "powertcp", "mlcc"}

// algMetrics reports each algorithm's slice of the lap: the median, over
// laps, of its sub-run's reference-machine seconds, and its event count. An
// algorithm the workload does not simulate reports 0 for both.
func (o *runOutcome) algMetrics(set *lapSet) {
	lapS := map[string]float64{}
	events := map[string]uint64{}
	for i, a := range set.laps[0].algs {
		lapS[a.alg] = median(set.each(func(r *lapResult) float64 { return r.algs[i].calibratedS() }))
		events[a.alg] = a.events
	}
	for _, alg := range benchAlgs {
		o.set("cc."+alg+".lap_s", lapS[alg], "s")
		o.set("cc."+alg+".events", float64(events[alg]), "count")
	}
}

// spanNames are the per-lap spans recorded around calls into the layers.
var spanNames = []string{"topo_build", "workload_generate", "topo_addflows", "simulate", "collect", "verify"}

func (o *runOutcome) spanMetrics(tr *tracer) {
	for _, name := range spanNames {
		o.set("span."+name+"_s", median(tr.perLapSeconds(name)), "s")
	}
}

// profMetrics buckets the traced laps' CPU samples by the leaf frame's
// package, keeping only samples taken inside the simulate phase (or carrying
// no phase label at all: the collector's background workers, whose work the
// simulation caused).
func (o *runOutcome) profMetrics(gz []byte, profiledS float64) {
	shares, n, err := profileShares(gz)
	if err != nil {
		o.gate = append(o.gate, fmt.Sprintf("cpu profile: %v", err))
	} else if n == 0 && profiledS > 0.5 {
		// At 100 Hz half a second of simulation cannot go unsampled.
		o.gate = append(o.gate, fmt.Sprintf("cpu profile: no samples in %.2f s of simulate phase", profiledS))
	}
	for _, b := range profBuckets {
		o.set("prof."+b+"_share", shares[b], "ratio")
	}
}

// shardMetrics compares the workload's laps with the laps of the same input
// at the other shard count. The sharded side supplies the balance bound:
// total events over the sum, across barrier windows, of the busiest shard's
// events — the speedup two idle cores could reach.
func (o *runOutcome) shardMetrics(w *workloadDef, same, flip *lapSet) {
	one, two := same, flip
	if w.shards == 2 {
		one, two = flip, same
	}
	sharded := two.laps[0]
	bound := float64(sharded.c.events) / float64(sharded.maxShardEvts)
	speedup := one.lapS() / two.lapS()
	o.set("sim.shard.windows", float64(sharded.windows), "count")
	o.set("sim.shard.balance_bound", bound, "ratio")
	o.set("sim.shard.speedup", speedup, "ratio")
	o.set("sim.shard.efficiency", speedup/bound, "ratio")
}

// planeNames are the planes of the cost matrix, in report order.
var planeNames = []string{"metrics", "flight", "audit", "guard", "fault"}

// planeMetrics measures what each plane costs when switched on: the
// elephants input (whatever workload this pass is for — the matrix is a fixed
// probe, like the micro-drivers) simulated with exactly one plane attached,
// minus the same simulation with none, per fired event. Each configuration's
// time is its median round in reference-machine seconds; configurations take
// turns within a round, in rotating order. Simulations stop at a fixed
// simulated instant instead of draining: the cost per event is what is
// wanted, and the first 1.5 ms prices it.
func (o *runOutcome) planeMetrics(cfg runConfig) {
	w := workloadByName("elephants")
	const cutAt = 1500 * sim.Microsecond
	step := cutAt / sim.Time(w.segments)
	calIters := max(calItersPerSubRun/cfg.scale/w.segments, 16)
	only := []planes{{}, {metrics: true}, {flight: true}, {audit: true}, {guard: true}, {fault: true}}
	rounds := make([][]float64, len(only))
	events := make([]uint64, len(only))
	start := time.Now()
	for round := 0; cfg.more(round, start); round++ {
		for j := range only {
			i := (j + round) % len(only) // no configuration always follows the same neighbour
			n, _ := setUp(w, lapOpts{seed: cfg.seed, scale: cfg.scale, shards: 1, planes: only[i]}, w.algs[0], 0)
			runtime.GC()
			var wall, calS time.Duration
			for k := 1; k <= w.segments; k++ {
				t0 := time.Now()
				n.Run(sim.Time(k) * step)
				wall += time.Since(t0)
				calS += cal.run(calIters)
			}
			rounds[i] = append(rounds[i], calibrated(wall.Seconds(), calIters*w.segments, calS.Seconds()))
			events[i] = n.Fired()
		}
	}
	off := median(rounds[0])
	for i, name := range planeNames {
		if events[i+1] != events[0] {
			o.gate = append(o.gate, fmt.Sprintf("plane %s changed the event count: %d, planes off %d", name, events[i+1], events[0]))
		}
		o.set("planes."+name+"_ns_per_event", (median(rounds[i+1])-off)*1e9/float64(events[0]), "ns")
	}
}
