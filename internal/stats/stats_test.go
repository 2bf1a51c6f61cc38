package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mlcc/internal/sim"
)

func sample(size int64, fct sim.Time, cross bool) FCTSample {
	return FCTSample{Size: size, FCT: fct, Cross: cross}
}

func TestAvgAndFilters(t *testing.T) {
	c := NewFCTCollector()
	c.Add(sample(1000, 10*sim.Microsecond, false))
	c.Add(sample(1000, 20*sim.Microsecond, false))
	c.Add(sample(1000, 90*sim.Microsecond, true))

	if avg, ok := c.Avg(Intra); !ok || avg != 15*sim.Microsecond {
		t.Fatalf("intra avg = %v ok=%v", avg, ok)
	}
	if avg, ok := c.Avg(Cross); !ok || avg != 90*sim.Microsecond {
		t.Fatalf("cross avg = %v ok=%v", avg, ok)
	}
	if avg, ok := c.Avg(nil); !ok || avg != 40*sim.Microsecond {
		t.Fatalf("overall avg = %v", avg)
	}
	if _, ok := c.Avg(func(s FCTSample) bool { return s.Size > 1000 }); ok {
		t.Fatal("empty selection reported ok")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	c := NewFCTCollector()
	for i := 1; i <= 100; i++ {
		c.Add(sample(100, sim.Time(i)*sim.Microsecond, false))
	}
	if p, _ := c.Percentile(nil, 0.5); p != 50*sim.Microsecond {
		t.Fatalf("p50 = %v", p)
	}
	if p, _ := c.Percentile(nil, 0.999); p != 100*sim.Microsecond {
		t.Fatalf("p99.9 = %v", p)
	}
	if p, _ := c.Percentile(nil, 0.01); p != sim.Microsecond {
		t.Fatalf("p1 = %v", p)
	}
}

func TestPercentileProperty(t *testing.T) {
	f := func(raw []uint32, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p := (float64(pRaw%100) + 1) / 100
		c := NewFCTCollector()
		var vals []int64
		for _, v := range raw {
			c.Add(sample(1, sim.Time(v), false))
			vals = append(vals, int64(v))
		}
		got, ok := c.Percentile(nil, p)
		if !ok {
			return false
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		// Nearest-rank: value at ceil(p*n)-1.
		idx := int(math.Ceil(p*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		return int64(got) == vals[idx]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPercentileDomain pins Percentile's input validation: the documented
// domain is 0 < p <= 1, and anything else — including NaN, which slides
// through ordering comparisons — must return ok=false rather than silently
// clamping to the nearest rank.
func TestPercentileDomain(t *testing.T) {
	c := NewFCTCollector()
	for i := 1; i <= 10; i++ {
		c.Add(sample(1, sim.Time(i)*sim.Microsecond, false))
	}
	for _, p := range []float64{0, -0.1, 1.0000001, 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if v, ok := c.Percentile(nil, p); ok {
			t.Errorf("Percentile(%v) = %v, ok=true; want ok=false", p, v)
		}
	}
	// Boundaries of the valid domain.
	if v, ok := c.Percentile(nil, 1); !ok || v != 10*sim.Microsecond {
		t.Errorf("Percentile(1) = %v, %v; want max sample", v, ok)
	}
	if v, ok := c.Percentile(nil, math.SmallestNonzeroFloat64); !ok || v != sim.Microsecond {
		t.Errorf("Percentile(ε) = %v, %v; want min sample", v, ok)
	}
	// An empty collector stays ok=false even for valid p.
	if _, ok := NewFCTCollector().Percentile(nil, 0.5); ok {
		t.Error("Percentile on empty collector returned ok=true")
	}
}

func TestByBucket(t *testing.T) {
	c := NewFCTCollector()
	c.Add(sample(5<<10, 10*sim.Microsecond, true))
	c.Add(sample(50<<10, 100*sim.Microsecond, true))
	c.Add(sample(10<<20, 10*sim.Millisecond, true))
	rows := c.ByBucket(Cross, DefaultBuckets())
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Count != 1 || rows[1].Count != 1 || rows[4].Count != 1 {
		t.Fatalf("bucket counts: %+v", rows)
	}
	if rows[2].Count != 0 || rows[3].Count != 0 {
		t.Fatal("phantom samples in empty buckets")
	}
	if rows[4].P999 != 10*sim.Millisecond || rows[2].P999 != 0 {
		t.Fatalf("p99.9 of the big bucket %v, of an empty one %v", rows[4].P999, rows[2].P999)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{10, 10, 10, 10}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal rates: %v", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("single hog: %v", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Fatalf("all zero: %v", got)
	}
}

func TestJainIndexBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		rates := make([]float64, len(raw))
		nonzero := false
		for i, v := range raw {
			rates[i] = float64(v)
			if v != 0 {
				nonzero = true
			}
		}
		got := JainIndex(rates)
		if !nonzero {
			return got == 0
		}
		return got >= 1/float64(len(rates))-1e-12 && got <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesSummaries(t *testing.T) {
	var s Series
	s.Name = "q"
	s.Add(sim.Millisecond, 10)
	s.Add(2*sim.Millisecond, 30)
	s.Add(3*sim.Millisecond, 20)
	if s.Max() != 30 || s.Last() != 20 || s.Len() != 3 {
		t.Fatalf("summaries: max=%v last=%v len=%d", s.Max(), s.Last(), s.Len())
	}
	if got := s.AvgAfter(2 * sim.Millisecond); got != 25 {
		t.Fatalf("AvgAfter = %v", got)
	}
}

// TestSeriesAddOrdering pins Add's contract: equal timestamps are fine,
// going backwards panics.
func TestSeriesAddOrdering(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(sim.Millisecond, 1)
	s.Add(sim.Millisecond, 2) // same timestamp allowed
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-order Add did not panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, `series "x"`) {
			t.Fatalf("panic message = %v", r)
		}
	}()
	s.Add(sim.Millisecond-sim.Nanosecond, 3)
}

func TestWriteSeriesCSV(t *testing.T) {
	q := &Series{Name: "dci,1", Kind: QueueLen} // comma needs escaping
	q.Add(sim.Millisecond, 1024)
	r := &Series{Name: "flow1", Kind: FlowRate}
	r.Add(2*sim.Millisecond, 1e9)
	quoted := &Series{Name: `say "hi"`, Kind: Gauge} // quotes double inside quoted field
	quoted.Add(sim.Millisecond, 1)
	nl := &Series{Name: "line\nbreak", Kind: Counter} // newline forces quoting too
	nl.Add(sim.Millisecond, 2)
	nl.Add(3*sim.Millisecond, 4)

	var b strings.Builder
	if err := WriteSeriesCSV(&b, []*Series{q, r, {Name: "empty"}, quoted, nl}); err != nil {
		t.Fatal(err)
	}
	want := "stream,kind,time_ms,value\n" +
		"\"dci,1\",queue_len,1.000000,1024.000000\n" +
		"flow1,flow_rate,2.000000,1000000000.000000\n" +
		"\"say \"\"hi\"\"\",gauge,1.000000,1.000000\n" +
		"\"line\nbreak\",counter,1.000000,2.000000\n" +
		"\"line\nbreak\",counter,3.000000,4.000000\n"
	if got := b.String(); got != want {
		t.Fatalf("WriteSeriesCSV:\n%q\nwant\n%q", got, want)
	}
}

// TestSeriesMaxAllNegative pins the fix for Max on all-negative series: it
// must report the true (negative) maximum instead of a spurious zero from a
// zero-initialized accumulator.
func TestSeriesMaxAllNegative(t *testing.T) {
	var s Series
	s.Add(sim.Millisecond, -30)
	s.Add(2*sim.Millisecond, -10)
	s.Add(3*sim.Millisecond, -20)
	if got := s.Max(); got != -10 {
		t.Errorf("Max = %v, want -10", got)
	}
	var empty Series
	if empty.Max() != 0 {
		t.Error("empty series must report 0")
	}
}

func TestCollectorString(t *testing.T) {
	c := NewFCTCollector()
	c.Add(sample(1000, 10*sim.Microsecond, false))
	if got := c.String(); !strings.Contains(got, "flows=1") {
		t.Fatalf("String = %q", got)
	}
}

func TestFilterRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewFCTCollector()
	nIntra, nCross := 0, 0
	for i := 0; i < 1000; i++ {
		cross := rng.Intn(2) == 0
		if cross {
			nCross++
		} else {
			nIntra++
		}
		c.Add(sample(int64(rng.Intn(1<<20)+1), sim.Time(rng.Intn(1000)+1), cross))
	}
	if c.count(Intra) != nIntra || c.count(Cross) != nCross {
		t.Fatal("filter counts mismatch")
	}
	if c.count(Intra)+c.count(Cross) != c.Len() {
		t.Fatal("partition broken")
	}
}
