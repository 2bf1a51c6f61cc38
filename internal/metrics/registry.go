// Package metrics is the simulator-wide telemetry layer: a registry of
// counters, gauges and owned histograms under hierarchical dotted names
// ("switch.dci0.q3.pfc_pause_ns"), a bounded ring-buffer flight recorder of
// structured packet-lifecycle events, and exporters (JSON run manifests,
// stats.Series time series as CSV).
//
// The layer follows the same zero-overhead-when-off discipline as the event
// loop (see the "Performance model" section of DESIGN.md): every type is
// nil-safe, so components hold possibly-nil pointers and pay one predictable
// branch — and zero allocations — when telemetry is disabled. Hot-path
// counters stay plain int64 fields on their components. A device registers
// once, as a Source that enumerates its instruments when a reader asks, so
// enabling the registry adds no per-packet cost and builds no per-instrument
// name or closure either.
package metrics

import (
	"math"
	"sort"
	"strconv"
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

// Kind is what an instrument measures.
type Kind uint8

const (
	// Counter is a monotone count.
	Counter Kind = iota
	// Gauge is a level.
	Gauge
	// Runtime is a gauge of the simulator's own running (wall seconds, pool
	// high-waters, event-loop shares), which differs between machines and
	// shard counts: only Snapshot shows it (Point.Runtime); the sampler skips
	// it and Manifest.AddCounters files it apart from the counters.
	Runtime
)

// Source is a component whose counters and gauges the registry reads when
// asked for. Registering one (Registry.Add) stores it under its name prefix
// and nothing else; every read — Snapshot, Value, Len, the sampler — asks
// it afresh. Instruments calls emit once per instrument with its current
// value, always the same instruments in the same order. port places a
// per-port instrument, named "<prefix>.q<port>.<name>"; a device-wide one
// (port -1) is "<prefix>.<name>", or "<prefix>" alone when name is empty.
// Sources pass constant names, so a read that needs no names (the
// sampler's, every tick) builds none.
type Source interface {
	Instruments(emit func(port int, name string, kind Kind, v float64))
}

// Named is a Source that spells its own prefix when a reader asks, so
// registering one (Registry.AddNamed) builds no string at all.
type Named interface {
	Source
	Prefix() string
}

// SourceFunc adapts a function to a Source.
type SourceFunc func(emit func(port int, name string, kind Kind, v float64))

// Instruments calls f.
func (f SourceFunc) Instruments(emit func(port int, name string, kind Kind, v float64)) { f(emit) }

// counterFunc and gaugeFunc register one computed value: a source whose
// only instrument the prefix names.
type (
	counterFunc func() int64
	gaugeFunc   func() float64
)

func (f counterFunc) Instruments(emit func(int, string, Kind, float64)) {
	emit(-1, "", Counter, float64(f()))
}

func (f gaugeFunc) Instruments(emit func(int, string, Kind, float64)) { emit(-1, "", Gauge, f()) }

// instrumentName is the registry name of an instrument a source under
// prefix emits (see Source).
func instrumentName(prefix string, port int, name string) string {
	switch {
	case port >= 0:
		return prefix + ".q" + strconv.Itoa(port) + "." + name
	case name == "":
		return prefix
	}
	return prefix + "." + name
}

// merged is hs as one histogram: hs[0] itself when alone.
func merged(hs []*Histogram) *Histogram {
	if len(hs) == 1 {
		return hs[0]
	}
	m := &Histogram{}
	for _, h := range hs {
		for b, c := range h.counts {
			m.counts[b] += c
		}
		m.n += h.n
		m.sum += h.sum
		m.max = max(m.max, h.max)
	}
	return m
}

// entry is one registration: an owned histogram, or a source under its
// prefix.
type entry struct {
	name string       // the histogram's name, or the source's prefix; "" for a Named source
	hs   []*Histogram // the histogram's parts; exactly one of hs and src is set
	src  Source
}

// visit calls fn for every instrument of es in registration order: a
// histogram once under its own name (hs its parts, v their count), a source's
// instruments as it emits them, asking each source once. Names are
// built only when named is set; otherwise fn's name means nothing.
func visit(es []entry, named bool, fn func(name string, kind Kind, v float64, hs []*Histogram)) {
	var prefix string
	emit := func(port int, name string, kind Kind, v float64) {
		if named {
			name = instrumentName(prefix, port, name)
		}
		fn(name, kind, v, nil)
	}
	for i := range es {
		e := &es[i]
		if e.hs != nil {
			var n int64
			for _, h := range e.hs {
				n += h.count()
			}
			fn(e.name, Counter, float64(n), e.hs)
			continue
		}
		prefix = e.name
		if named && prefix == "" {
			prefix = e.src.(Named).Prefix()
		}
		e.src.Instruments(emit)
	}
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
// A device is one registration: a Source under its prefix, in one
// registration-order slice. Registering builds no name and no accessor;
// the readers build the names when they need them. Names must be unique,
// and the readers enforce it: the first read after a registration names
// every instrument once, sorted, and panics on a duplicate, so no reader
// ever returns one.
type Registry struct {
	mu      sync.Mutex
	order   []entry
	checked int // order[:checked] is known to hold unique names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(e entry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.order = append(r.order, e)
	r.mu.Unlock()
}

// entries returns the registrations so far once their names are known
// unique, panicking on a duplicate: a name collision is always a wiring
// bug. Only the first read after new registrations names them, outside
// the lock, since naming calls into the sources. Registration only
// appends, so the returned slice stays safe to read without the lock.
func (r *Registry) entries() []entry {
	r.mu.Lock()
	es, checked := r.order, r.checked
	r.mu.Unlock()
	if checked == len(es) {
		return es
	}
	var names []string
	visit(es, true, func(name string, _ Kind, _ float64, _ []*Histogram) { names = append(names, name) })
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			panic("metrics: duplicate instrument " + names[i])
		}
	}
	r.mu.Lock()
	r.checked = max(r.checked, len(es))
	r.mu.Unlock()
	return es
}

// Add registers src's instruments under prefix (see Source). Nil registry
// is a no-op; duplicate names panic at the next read.
func (r *Registry) Add(prefix string, src Source) { r.add(entry{name: prefix, src: src}) }

// AddNamed registers src's instruments under the prefix it spells, asked
// for afresh by every read that names them. Nil registry is a no-op.
func (r *Registry) AddNamed(src Named) { r.add(entry{src: src}) }

// Histogram registers and returns an owned histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.Histograms(name, 1)[0]
}

// Histograms registers one histogram in parts, each with one writer (a
// shard's engine, say); reads, made with the writers quiescent, see the
// parts merged, exactly so for integer observations. A nil registry
// returns nil parts, on which Observe is a no-op.
func (r *Registry) Histograms(name string, parts int) []*Histogram {
	hs := make([]*Histogram, parts)
	if r == nil {
		return hs
	}
	for i := range hs {
		hs[i] = &Histogram{}
	}
	r.add(entry{name: name, hs: hs})
	return hs
}

// CounterFunc registers one computed counter; fn is called at read time
// only. Nil registry is a no-op. Duplicate names panic at the next read.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.add(entry{name: name, src: counterFunc(fn)})
}

// GaugeFunc registers one computed gauge.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.add(entry{name: name, src: gaugeFunc(fn)})
}

// Len reports the number of registered instruments (0 for nil).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	visit(r.entries(), false, func(string, Kind, float64, []*Histogram) { n++ })
	return n
}

// Value returns the current value of the named instrument (counters and
// gauges; histograms report their count).
func (r *Registry) Value(name string) (v float64, ok bool) {
	if r == nil {
		return 0, false
	}
	visit(r.entries(), true, func(n string, _ Kind, x float64, _ []*Histogram) {
		if n == name {
			v, ok = x, true
		}
	})
	return v, ok
}

// Point is one snapshotted metric value. Kind is "counter" or "gauge"
// (histogram-expanded points report ".count" as a counter and the rest as
// gauges), giving exporters — the Prometheus text endpoint in internal/obs —
// the TYPE information a plain name/value pair loses. Runtime marks a
// Runtime gauge: a measurement of the simulator's own running.
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
	es := r.entries()
	out := make([]Point, 0, len(es))
	visit(es, true, func(name string, kind Kind, v float64, hs []*Histogram) {
		if hs != nil {
			h := merged(hs)
			out = append(out,
				Point{Name: name + ".count", Value: v, Kind: PointCounter},
				Point{Name: name + ".sum", Value: h.sum, Kind: PointGauge},
				Point{Name: name + ".max", Value: h.max, Kind: PointGauge},
				Point{Name: name + ".p50", Value: h.quantile(0.50), Kind: PointGauge},
				Point{Name: name + ".p99", Value: h.quantile(0.99), Kind: PointGauge},
			)
			return
		}
		pk := PointGauge
		if kind == Counter {
			pk = PointCounter
		}
		out = append(out, Point{Name: name, Value: v, Kind: pk, Runtime: kind == Runtime})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sampled calls fn for every counter and gauge the sampler reads —
// histograms are snapshot-only, runtime gauges differ between shard counts
// and machines — in registration order, asking each source once. Names are
// built only when named is set.
func (r *Registry) sampled(named bool, fn func(name string, isCounter bool, v float64)) {
	if r == nil {
		return
	}
	visit(r.entries(), named, func(name string, kind Kind, v float64, hs []*Histogram) {
		if hs == nil && kind != Runtime {
			fn(name, kind == Counter, v)
		}
	})
}

// each is sampled with names, for the sampler's set-up.
func (r *Registry) each(fn func(name string, isCounter bool, v float64)) { r.sampled(true, fn) }
