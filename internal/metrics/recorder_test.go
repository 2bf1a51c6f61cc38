package metrics

import (
	"strings"
	"testing"
	"unsafe"

	"mlcc/internal/sim"
)

func ev(i int, k EventKind) Event {
	return Event{T: sim.Time(i) * sim.Microsecond, Kind: k, Node: 1, Port: 0, Flow: int32(i), Val: int64(i)}
}

// TestEventLayout pins the flight record's size, like pkt.TestPacketLayout
// pins the frame's: an armed ring is Cap × this many bytes, zeroed at every
// build.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 24 {
		t.Errorf("Event is %d bytes, want 24: a 64 k ring then costs %d KiB, not 1536; keep the fields widest first and Port an int8 (a 16-bit Port pads to 32)", got, got*64)
	}
}

func TestRecorderNil(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(ev(1, EvDrop)) // must not panic
	if fr.buffered() != 0 || fr.Cap() != 0 || fr.Recorded() != 0 || fr.Events() != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestRecorderWraparound(t *testing.T) {
	// Exactly full, one past, and more than twice around.
	for _, total := range []int{4, 5, 10} {
		fr := NewFlightRecorder(4)
		for i := 0; i < total; i++ {
			fr.Record(ev(i, EvEnqueue))
		}
		if fr.Cap() != 4 || fr.buffered() != 4 || fr.Recorded() != uint64(total) {
			t.Fatalf("total %d: cap=%d len=%d recorded=%d", total, fr.Cap(), fr.buffered(), fr.Recorded())
		}
		evs := fr.Events()
		if len(evs) != 4 {
			t.Fatalf("total %d: events = %d", total, len(evs))
		}
		// Oldest-first: the last 4 records are flows total-4 .. total-1.
		for i, e := range evs {
			if int(e.Flow) != total-4+i {
				t.Fatalf("total %d: events[%d].Flow = %d, want %d", total, i, e.Flow, total-4+i)
			}
		}
	}
}

func TestRecorderPartialFill(t *testing.T) {
	fr := NewFlightRecorder(8)
	for i := 0; i < 3; i++ {
		fr.Record(ev(i, EvAck))
	}
	if fr.buffered() != 3 || fr.Recorded() != 3 {
		t.Fatalf("len=%d recorded=%d", fr.buffered(), fr.Recorded())
	}
	evs := fr.Events()
	for i, e := range evs {
		if int(e.Flow) != i {
			t.Fatalf("events[%d].Flow = %d", i, e.Flow)
		}
	}
}

func TestRecorderSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	NewFlightRecorder(0)
}

func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EvEnqueue: "enq", EvDequeue: "deq", EvDrop: "drop",
		EvPFCPause: "pfc_pause", EvPFCResume: "pfc_resume", EvECNMark: "ecn_mark",
		EvCNP: "cnp", EvAck: "ack", EvRateUpdate: "rate", EventKind(99): "kind(99)",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("EventKind(%d) = %q, want %q", k, got, s)
		}
	}
}

func TestDumpFormat(t *testing.T) {
	fr := NewFlightRecorder(4)
	fr.Record(ev(1, EvDrop))
	var b strings.Builder
	if err := fr.dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "last 1 of 1 events (capacity 4)") {
		t.Fatalf("header missing: %q", out)
	}
	if !strings.Contains(out, "drop") || !strings.Contains(out, "flow=1") {
		t.Fatalf("event line missing: %q", out)
	}
}

func TestViolationDumpsAndPanics(t *testing.T) {
	fr := NewFlightRecorder(8)
	for i := 0; i < 5; i++ {
		fr.Record(ev(i, EvDequeue))
	}
	var b strings.Builder
	prev := SetViolationOutput(&b)
	defer SetViolationOutput(prev)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Violation did not panic")
		}
		if msg, _ := r.(string); msg != "buffer underflow" {
			t.Fatalf("panic value = %v", r)
		}
		out := b.String()
		if !strings.Contains(out, "invariant violation: buffer underflow") {
			t.Fatalf("violation header missing: %q", out)
		}
		if !strings.Contains(out, "last 5 of 5 events") {
			t.Fatalf("dump missing: %q", out)
		}
	}()
	Violation(fr, "buffer underflow")
}

func TestViolationNilRecorderStillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil-recorder Violation did not panic")
		}
	}()
	Violation(nil, "boom")
}
