package metrics

import (
	"testing"

	"mlcc/internal/sim"
)

// TestDisabledPathAllocFree proves the zero-overhead contract at the
// package level: nil instruments and nil recorders must not allocate, and an
// attached recorder's Record must not allocate either (the ring is
// pre-sized). The simulator-level proof is TestTelemetryDisabledPathAllocFree
// at the repository root.
func TestDisabledPathAllocFree(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		fr *FlightRecorder
	)
	ev := Event{T: sim.Microsecond, Kind: EvEnqueue, Node: 1, Flow: 2, Val: 1500}
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		h.Observe(1)
		fr.Record(ev)
	}); n != 0 {
		t.Fatalf("nil instruments allocated %v/op", n)
	}

	live := NewFlightRecorder(64)
	reg := NewRegistry()
	lc := reg.Counter("c")
	lg := reg.Gauge("g")
	lh := reg.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() {
		lc.Inc()
		lg.Set(2)
		lh.Observe(3)
		live.Record(ev)
	}); n != 0 {
		t.Fatalf("enabled hot path allocated %v/op", n)
	}
}

func BenchmarkRecordDisabled(b *testing.B) {
	b.ReportAllocs()
	var fr *FlightRecorder
	ev := Event{T: sim.Microsecond, Kind: EvEnqueue, Node: 1, Flow: 2, Val: 1500}
	for i := 0; i < b.N; i++ {
		fr.Record(ev)
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	b.ReportAllocs()
	fr := NewFlightRecorder(1024)
	ev := Event{T: sim.Microsecond, Kind: EvEnqueue, Node: 1, Flow: 2, Val: 1500}
	for i := 0; i < b.N; i++ {
		fr.Record(ev)
	}
}

// BenchmarkFlightRecorderRecord records as the simulator's taps do: each
// event is built from fields that change per call, into a ring as large as
// the bench harness's 64k recorder.
func BenchmarkFlightRecorderRecord(b *testing.B) {
	b.ReportAllocs()
	fr := NewFlightRecorder(1 << 16)
	for i := 0; i < b.N; i++ {
		fr.Record(Event{T: sim.Time(i), Kind: EvEnqueue, Node: int32(i & 31), Port: int32(i & 3),
			Flow: int32(i >> 4), Val: int64(i)})
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	b.ReportAllocs()
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncEnabled(b *testing.B) {
	b.ReportAllocs()
	c := NewRegistry().Counter("c")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	b.ReportAllocs()
	h := NewRegistry().Histogram("h")
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 0xffff))
	}
}

func BenchmarkSnapshot(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 64; i++ {
		reg.Counter(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(reg.Snapshot()) != 64 {
			b.Fatal("snapshot size")
		}
	}
}
