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
		reg *Registry
		h   *Histogram
		fr  *FlightRecorder
	)
	ev := Event{T: sim.Microsecond, Kind: EvEnqueue, Node: 1, Flow: 2, Val: 1500}
	if n := testing.AllocsPerRun(1000, func() {
		reg.CounterFunc("c", nil)
		h.Observe(1)
		fr.Record(ev)
	}); n != 0 {
		t.Fatalf("nil instruments allocated %v/op", n)
	}

	live := NewFlightRecorder(64)
	lh := NewRegistry().Histogram("h")
	if n := testing.AllocsPerRun(1000, func() {
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
		fr.Record(Event{T: sim.Time(i), Kind: EvEnqueue, Node: int16(i & 31), Port: int8(i & 3),
			Flow: int32(i >> 4), Val: int64(i)})
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
		reg.CounterFunc(string(rune('a'+i%26))+string(rune('0'+i/26)), func() int64 { return 1 })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(reg.Snapshot()) != 64 {
			b.Fatal("snapshot size")
		}
	}
}
