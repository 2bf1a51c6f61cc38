package link

import (
	"math/rand"
	"testing"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// TestPipeOrderingMixedSizes pushes many frames of random sizes through a
// long-delay link and checks in-order delivery with exact arrival spacing.
func TestPipeOrderingMixedSizes(t *testing.T) {
	eng := sim.NewEngine()
	a, src, rx := newPair(t, eng, 100*sim.Gbps, 3*sim.Millisecond)
	rng := rand.New(rand.NewSource(9))
	var sizes []int
	for i := 0; i < 500; i++ {
		size := 64 + rng.Intn(1400)
		sizes = append(sizes, size)
		src.push(a.Pool.NewData(1, 0, 1, int64(i), size))
	}
	a.Kick()
	eng.Run()
	if len(rx.got) != 500 {
		t.Fatalf("delivered %d", len(rx.got))
	}
	// In order, and arrival gap equals the serialization time of the NEXT
	// frame (store-and-forward at the sender).
	var expect sim.Time = 3 * sim.Millisecond
	for i, p := range rx.got {
		if p.Seq != int64(i) {
			t.Fatalf("out of order at %d: seq %d", i, p.Seq)
		}
		expect += sim.TxTime(sizes[i], 100*sim.Gbps)
		if rx.times[i] != expect {
			t.Fatalf("frame %d at %v, want %v", i, rx.times[i], expect)
		}
	}
}

// TestPipeHoldsBDP verifies that a long-haul link can hold far more than one
// frame in flight and the engine heap stays small (one event per port).
func TestPipeHoldsBDP(t *testing.T) {
	eng := sim.NewEngine()
	a, src, rx := newPair(t, eng, 100*sim.Gbps, 3*sim.Millisecond)
	// 3 ms at 100G = 37.5 MB in flight = 37500 MTU frames.
	const n = 37500
	for i := 0; i < n; i++ {
		src.push(a.Pool.NewData(1, 0, 1, int64(i), 1000))
	}
	a.Kick()
	// After 3 ms simulated, almost everything is airborne; the pending
	// event count must be O(1), not O(n).
	eng.RunUntil(3 * sim.Millisecond)
	if pending := eng.Pending(); pending > 64 {
		t.Fatalf("pending events = %d; pipe is not coalescing", pending)
	}
	eng.Run()
	if len(rx.got) != n {
		t.Fatalf("delivered %d of %d", len(rx.got), n)
	}
}

// TestPauseDoesNotOvertakeData: a PFC frame sent while data is in flight
// must not arrive before data already on the wire.
func TestPauseDoesNotOvertakeData(t *testing.T) {
	eng := sim.NewEngine()
	a, src, rx := newPair(t, eng, 100*sim.Gbps, sim.Millisecond)
	b := a.Peer()
	_ = src
	// b sends data toward a...
	bsrc := &fifoSource{}
	b.SetSource(bsrc)
	for i := 0; i < 10; i++ {
		bsrc.push(b.Pool.NewData(1, 1, 0, int64(i), 1000))
	}
	b.Kick()
	// ...and then a pause: it must take effect only after those frames
	// landed (the wire is FIFO).
	eng.RunUntil(100 * sim.Microsecond)
	b.SendPause(pkt.ClassData, true)
	eng.Run()
	// All ten data frames must have landed at a's owner before the pause
	// takes effect at a (FIFO wire: the pause was sent last).
	aSink := a.Owner.(*sink)
	if len(aSink.got) != 10 {
		t.Fatalf("a received %d data frames", len(aSink.got))
	}
	if !a.Paused(pkt.ClassData) {
		t.Fatal("pause lost")
	}
	_ = rx
}

// TestPipeWrapAround streams far more frames than the wire ever holds (≈ 400
// in flight), so every frame is at some point the list's head, its tail and
// an interior link — and, a wire being a list through the frames, each is
// handed to the sink with nothing of the wire still attached: the sink
// re-queues all 20 000 on a queue of its own, which a stale link would knot.
func TestPipeWrapAround(t *testing.T) {
	eng := sim.NewEngine()
	a, src, rx := newPair(t, eng, 100*sim.Gbps, 10*sim.Microsecond)
	const n = 20000
	for i := 0; i < n; i++ {
		src.push(a.Pool.NewData(1, 0, 1, int64(i), 300))
	}
	a.Kick()
	eng.Run()
	if len(rx.got) != n {
		t.Fatalf("delivered %d", len(rx.got))
	}
	var mine pkt.Queue
	for i, p := range rx.got {
		if p.Seq != int64(i) {
			t.Fatalf("out of order after wrap-around at %d", i)
		}
		mine.Push(p)
	}
	for i := 0; i < n; i++ {
		if p := mine.Pop(); p != rx.got[i] {
			t.Fatalf("re-queued frame %d came back as %v", i, p)
		}
	}
	if a.InFlightFrames() != 0 {
		t.Fatalf("drained wire reports %d frames in flight", a.InFlightFrames())
	}
}
