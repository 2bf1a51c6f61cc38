// Package metrics is the simulator-wide telemetry layer: a registry of
// func-backed counters and gauges and owned histograms under hierarchical
// dotted names ("switch.dci0.q3.pfc_pause_ns"), a bounded ring-buffer
// flight recorder of structured packet-lifecycle events, and exporters
// (JSON run manifests, stats.Series time series as CSV).
//
// The layer follows the same zero-overhead-when-off discipline as the event
// loop (see the "Performance model" section of DESIGN.md): every type is
// nil-safe, so components hold possibly-nil pointers and pay one predictable
// branch — and zero allocations — when telemetry is disabled. Hot-path
// counters stay plain int64 fields on their components; the registry wraps
// them with read-only accessor functions (CounterFunc/GaugeFunc) so that
// enabling the registry adds no per-packet cost either.
package metrics

import (
	"math"
	"sort"
	"sync"
)

// histBuckets is the number of power-of-two histogram buckets. Bucket b
// holds values in (2^(b-1-histShift), 2^(b-histShift)], so the histogram
// spans 2^-16 .. 2^47 — microsecond FCTs through multi-GB byte counts.
const (
	histBuckets = 64
	histShift   = 16
)

// Histogram is a fixed-size log2-bucketed distribution. Observe is
// allocation-free and nil-safe; quantiles are approximate (bucket upper
// bounds), which is enough for run snapshots.
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	sum    float64
	max    float64
}

// Observe records one value. Non-positive values land in bucket 0.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[histBucket(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func histBucket(v float64) int {
	if v <= 0 {
		return 0
	}
	_, exp := math.Frexp(v)
	b := exp + histShift
	if b < 0 {
		return 0
	}
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// count returns the number of observations.
func (h *Histogram) count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// quantile returns an upper bound on the q-quantile (0 < q <= 1) from the
// bucket boundaries, or 0 when empty.
func (h *Histogram) quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			ub := math.Ldexp(1, b-histShift) // 2^(b-histShift)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// instrumentKind discriminates registry entries.
type instrumentKind uint8

const (
	kindCounter instrumentKind = iota
	kindGauge
	kindHistogram
)

// instrument is one registered metric: exactly one of the value fields is
// set. Counters and gauges read an existing component field at snapshot
// time, so registering them adds no hot-path cost at all. runtime marks a
// RuntimeGauge.
type instrument struct {
	name    string
	kind    instrumentKind
	runtime bool
	h       *Histogram
	cf      func() int64
	gf      func() float64
}

func (in *instrument) value() float64 {
	if in.cf != nil {
		return float64(in.cf())
	}
	return in.gf()
}

// Registry holds every instrument of one simulation under hierarchical
// dotted names. A nil *Registry is valid and turns all registrations into
// no-ops, so components register unconditionally.
//
// Naming scheme (see the "Observability" section of DESIGN.md):
//
//	sim.*                          engine internals
//	host.h<idx>.*                  per-server NIC/transport counters
//	switch.{leaf,spine}<idx>.*     fabric switches
//	dci.dci<idx>.*                 DCI switches (incl. PFQ/DQM)
//	<node>.q<port>.*               per-port/per-queue instruments
//	exp.*                          experiment-defined series
//
// Instruments live by value in one registration-order slice: registering
// one is an append, with no per-name index. Names must be unique, and the
// readers enforce it: the first read after a registration sorts the names
// once and panics on a duplicate, so no reader ever returns one.
type Registry struct {
	mu      sync.Mutex
	order   []instrument
	checked int // order[:checked] is known to hold unique names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(in instrument) {
	r.mu.Lock()
	r.order = append(r.order, in)
	r.mu.Unlock()
}

// verify panics if two instruments share a name: a name collision is always
// a wiring bug. Every reader calls it with r.mu held; only the first read
// after new registrations pays for the sort.
func (r *Registry) verify() {
	if r.checked == len(r.order) {
		return
	}
	names := make([]string, len(r.order))
	for i := range r.order {
		names[i] = r.order[i].name
	}
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			panic("metrics: duplicate instrument " + names[i])
		}
	}
	r.checked = len(r.order)
}

// Histogram registers and returns an owned histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{}
	r.add(instrument{name: name, kind: kindHistogram, h: h})
	return h
}

// CounterFunc registers a read-only counter backed by an existing component
// field; fn is called at snapshot/sample time only. Nil registry is a no-op.
// Duplicate names panic at the next read.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.add(instrument{name: name, kind: kindCounter, cf: fn})
}

// GaugeFunc registers a read-only gauge accessor.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(instrument{name: name, kind: kindGauge, gf: fn})
}

// RuntimeGauge registers a read-only gauge of the simulator's own running
// (wall seconds, pool high-waters), which differs between machines and shard
// counts: only Snapshot shows it (Point.Runtime); the sampler skips it and
// Manifest.AddCounters files it apart from the counters.
func (r *Registry) RuntimeGauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(instrument{name: name, kind: kindGauge, runtime: true, gf: fn})
}

// Len reports the number of registered instruments (0 for nil).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.verify()
	return len(r.order)
}

// Value returns the current value of the named instrument (counters and
// gauges; histograms report their count).
func (r *Registry) Value(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	r.verify()
	var in *instrument
	for i := range r.order {
		if r.order[i].name == name {
			in = &r.order[i]
			break
		}
	}
	r.mu.Unlock()
	if in == nil {
		return 0, false
	}
	if in.kind == kindHistogram {
		return float64(in.h.count()), true
	}
	return in.value(), true
}

// Point is one snapshotted metric value. Kind is "counter" or "gauge"
// (histogram-expanded points report ".count" as a counter and the rest as
// gauges), giving exporters — the Prometheus text endpoint in internal/obs —
// the TYPE information a plain name/value pair loses. Runtime marks a
// RuntimeGauge: a measurement of the simulator's own running.
type Point struct {
	Name    string
	Value   float64
	Kind    string
	Runtime bool
}

// Point kinds.
const (
	PointCounter = "counter"
	PointGauge   = "gauge"
)

// Snapshot returns every instrument's current value, sorted by name.
// Histograms expand into .count/.sum/.max/.p50/.p99 points.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.verify()
	out := make([]Point, 0, len(r.order))
	for i := range r.order {
		in := &r.order[i]
		if in.kind == kindHistogram {
			out = append(out,
				Point{Name: in.name + ".count", Value: float64(in.h.count()), Kind: PointCounter},
				Point{Name: in.name + ".sum", Value: in.h.sum, Kind: PointGauge},
				Point{Name: in.name + ".max", Value: in.h.max, Kind: PointGauge},
				Point{Name: in.name + ".p50", Value: in.h.quantile(0.50), Kind: PointGauge},
				Point{Name: in.name + ".p99", Value: in.h.quantile(0.99), Kind: PointGauge},
			)
			continue
		}
		kind := PointGauge
		if in.kind == kindCounter {
			kind = PointCounter
		}
		out = append(out, Point{Name: in.name, Value: in.value(), Kind: kind, Runtime: in.runtime})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// each calls fn for every counter and gauge in registration order (used by
// the sampler; histograms are snapshot-only, runtime gauges differ between
// shard counts and machines).
func (r *Registry) each(fn func(name string, isCounter bool, value func() float64)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.verify()
	ins := append([]instrument(nil), r.order...)
	r.mu.Unlock()
	for i := range ins {
		in := &ins[i]
		if in.kind == kindHistogram || in.runtime {
			continue
		}
		fn(in.name, in.kind == kindCounter, in.value)
	}
}
