package metrics

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Every nil receiver must be a silent no-op: that is the contract the
	// zero-overhead-when-disabled discipline rests on.
	var h *Histogram
	h.Observe(1)
	if h.count() != 0 || h.quantile(0.5) != 0 {
		t.Fatal("nil histogram")
	}
	var r *Registry
	if r.Histogram("z") != nil {
		t.Fatal("nil registry returned instruments")
	}
	r.CounterFunc("cf", func() int64 { return 1 })
	r.GaugeFunc("gf", func() float64 { return 1 })
	if r.Len() != 0 {
		t.Fatal("nil registry Len")
	}
	if _, ok := r.Value("x"); ok {
		t.Fatal("nil registry Value")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry Snapshot")
	}
}

func TestRegistryValues(t *testing.T) {
	r := NewRegistry()
	backing := int64(7)
	r.CounterFunc("a.fn", func() int64 { return backing })
	r.GaugeFunc("a.gfn", func() float64 { return float64(backing) * 2 })
	h := r.Histogram("a.hist")
	h.Observe(1)
	h.Observe(2)

	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	cases := map[string]float64{"a.fn": 7, "a.gfn": 14, "a.hist": 2}
	for name, want := range cases {
		got, ok := r.Value(name)
		if !ok || got != want {
			t.Errorf("Value(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	backing = 9 // func-backed instruments read live
	if got, _ := r.Value("a.fn"); got != 9 {
		t.Errorf("live counter func = %v", got)
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("missing name resolved")
	}
}

// TestHistogramParts pins that a histogram registered in parts reads as
// one: each part observed on its own, every statistic of the snapshot is
// that of a single histogram observing all the values.
func TestHistogramParts(t *testing.T) {
	parts, whole := NewRegistry(), NewRegistry()
	hs, h := parts.Histograms("age", 3), whole.Histogram("age")
	for i, v := range []float64{3, 900, 17, 40000, 5, 5, 2e6} {
		hs[i%3].Observe(v)
		h.Observe(v)
	}
	if got, want := fmt.Sprint(parts.Snapshot()), fmt.Sprint(whole.Snapshot()); got != want {
		t.Fatalf("three parts read %s, one histogram %s", got, want)
	}
	if v, _ := parts.Value("age"); v != 7 {
		t.Fatalf("Value(age) = %v, want the 7 observations", v)
	}
	if nils := (*Registry)(nil).Histograms("age", 2); len(nils) != 2 || nils[0] != nil || nils[1] != nil {
		t.Fatalf("nil registry: parts %v, want two nil", nils)
	}
}

// TestRegistryDuplicatePanics pins that a duplicate name panics at the
// first read, whichever reader it is, so no reader ever returns one.
func TestRegistryDuplicatePanics(t *testing.T) {
	readers := map[string]func(r *Registry){
		"Len":      func(r *Registry) { r.Len() },
		"Value":    func(r *Registry) { r.Value("other") },
		"Snapshot": func(r *Registry) { r.Snapshot() },
		"each":     func(r *Registry) { r.each(func(string, bool, float64) {}) },
	}
	for name, read := range readers {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			r.CounterFunc("dup", func() int64 { return 0 })
			r.CounterFunc("other", func() int64 { return 0 })
			read(r) // unique names read clean
			r.GaugeFunc("dup", func() float64 { return 0 })
			defer func() {
				if got := recover(); got != "metrics: duplicate instrument dup" {
					t.Fatalf("recovered %v, want the duplicate panic", got)
				}
			}()
			read(r)
		})
	}
}

// busyGauge is a source of one runtime gauge, busy_s.
type busyGauge float64

func (g busyGauge) Instruments(emit func(int, string, Kind, float64)) {
	emit(-1, "busy_s", Runtime, float64(g))
}

// TestRuntimeGaugesOnlyInSnapshot pins where runtime gauges show: in the
// snapshot (marked), never to the sampler, and in a manifest's Runtime map
// rather than its counters.
func TestRuntimeGaugesOnlyInSnapshot(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("sim.c", func() int64 { return 1 })
	r.Add("sim.shard0", busyGauge(0.5))
	var sampled []string
	r.each(func(name string, _ bool, _ float64) { sampled = append(sampled, name) })
	if len(sampled) != 1 || sampled[0] != "sim.c" {
		t.Fatalf("sampler saw %v, want only sim.c", sampled)
	}
	pts := r.Snapshot()
	if len(pts) != 2 || pts[0] != (Point{Name: "sim.c", Value: 1, Kind: PointCounter}) ||
		pts[1] != (Point{Name: "sim.shard0.busy_s", Value: 0.5, Kind: PointGauge, Runtime: true}) {
		t.Fatalf("snapshot = %+v", pts)
	}
	m := NewManifest("test")
	m.AddCounters(r)
	if len(m.Counters) != 1 || m.Counters["sim.c"] != 1 || len(m.Runtime) != 1 || m.Runtime["sim.shard0.busy_s"] != 0.5 {
		t.Fatalf("manifest counters %v runtime %v", m.Counters, m.Runtime)
	}
}

func TestHistogram(t *testing.T) {
	h := &Histogram{}
	for _, v := range []float64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.count() != 5 || h.sum != 110 || h.max != 100 {
		t.Fatalf("count=%d sum=%v max=%v", h.count(), h.sum, h.max)
	}
	// Quantiles are bucket upper bounds: p50 of {1,2,3,4,100} is ≤ 4 but ≥ 2.
	if q := h.quantile(0.5); q < 2 || q > 4 {
		t.Errorf("p50 = %v", q)
	}
	if q := h.quantile(1); q != 100 {
		t.Errorf("p100 = %v (capped at max)", q)
	}
	// Non-positive values land in bucket 0 without panicking.
	h.Observe(0)
	h.Observe(-5)
	if h.count() != 7 {
		t.Fatalf("count after non-positive = %d", h.count())
	}
}

func TestHistBucketMonotone(t *testing.T) {
	prev := -1
	for exp := -20; exp <= 50; exp++ {
		b := histBucket(math.Ldexp(1.5, exp))
		if b < prev {
			t.Fatalf("bucket not monotone at 2^%d: %d < %d", exp, b, prev)
		}
		if b < 0 || b >= histBuckets {
			t.Fatalf("bucket out of range: %d", b)
		}
		prev = b
	}
}

func TestSnapshotSortedAndExpanded(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("z.last", func() int64 { return 1 })
	r.GaugeFunc("a.first", func() float64 { return 2 })
	h := r.Histogram("m.hist")
	h.Observe(10)
	h.Observe(20)

	pts := r.Snapshot()
	names := make([]string, len(pts))
	for i, p := range pts {
		names[i] = p.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("snapshot not sorted: %v", names)
	}
	byName := map[string]float64{}
	for _, p := range pts {
		byName[p.Name] = p.Value
	}
	if byName["z.last"] != 1 || byName["a.first"] != 2 {
		t.Fatalf("func-backed points: %v", byName)
	}
	if byName["m.hist.count"] != 2 || byName["m.hist.sum"] != 30 || byName["m.hist.max"] != 20 {
		t.Fatalf("histogram expansion: %v", byName)
	}
	if _, ok := byName["m.hist.p99"]; !ok {
		t.Fatal("p99 missing from snapshot")
	}
}
