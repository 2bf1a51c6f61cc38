package link

import (
	"testing"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// crossPair builds a cross-shard link: port a on ea, port b on eb, each with
// its own pool, mirroring newPair's wiring for the sharded case.
func crossPair(t *testing.T, ea, eb *sim.Engine, rate sim.Rate, delay sim.Time) (a, b *Port, srcA, srcB *fifoSource, rxA, rxB *sink) {
	t.Helper()
	rxA = &sink{eng: ea}
	rxB = &sink{eng: eb}
	srcA = &fifoSource{}
	srcB = &fifoSource{}
	a = NewPort(ea, rxA, 0, rate, delay, pkt.NewPool())
	b = NewPort(eb, rxB, 0, rate, delay, pkt.NewPool())
	ConnectCross(a, b)
	a.SetSource(srcA)
	b.SetSource(srcB)
	return
}

// TestCrossDeliveryMatchesSingleEngine is the core equivalence check for the
// mailbox machinery: the same frame schedule over a cross-shard link delivers
// at exactly the same times — and with exactly the same total event count —
// as over a plain single-engine link. Digest parity between shards=1 and
// shards=N rests on both properties.
func TestCrossDeliveryMatchesSingleEngine(t *testing.T) {
	const (
		rate  = 100 * sim.Gbps
		delay = 5 * sim.Microsecond
	)
	sizes := []int{1000, 64, 1500, 9000, 256, 700, 4096, 64}

	// Reference: both ends on one engine.
	ref := sim.NewEngine()
	a1, src1, rx1 := newPair(t, ref, rate, delay)
	for i, s := range sizes {
		src1.push(a1.Pool.NewData(1, 0, 1, int64(i), s))
	}
	a1.Kick()
	ref.Run()
	if len(rx1.got) != len(sizes) {
		t.Fatalf("reference delivered %d frames, want %d", len(rx1.got), len(sizes))
	}

	// Cross: ends on two engines, lookahead = the link delay, flush at every
	// barrier in fixed a→b order.
	ea, eb := sim.NewEngine(), sim.NewEngine()
	a2, b2, src2, _, _, rx2 := crossPair(t, ea, eb, rate, delay)
	for i, s := range sizes {
		src2.push(a2.Pool.NewData(1, 0, 1, int64(i), s))
	}
	a2.Kick()
	g := sim.NewShardGroup([]*sim.Engine{ea, eb}, delay, func(sim.Time) {
		a2.FlushCross()
		b2.FlushCross()
	})
	g.RunUntil(ref.Now() + 2*delay)

	if len(rx2.got) != len(rx1.got) {
		t.Fatalf("cross delivered %d frames, want %d", len(rx2.got), len(rx1.got))
	}
	for i := range rx1.times {
		if rx2.times[i] != rx1.times[i] {
			t.Fatalf("frame %d arrived at %v cross vs %v single-engine", i, rx2.times[i], rx1.times[i])
		}
		if rx2.got[i].Size != rx1.got[i].Size {
			t.Fatalf("frame %d size %d cross vs %d single-engine", i, rx2.got[i].Size, rx1.got[i].Size)
		}
	}
	// Event-count parity: the sender-side tx events match one-for-one, and
	// the inbox drain fires once per distinct arrival time exactly as the
	// single-engine pipe drain does.
	if got := ea.Fired() + eb.Fired(); got != ref.Fired() {
		t.Fatalf("cross run fired %d events, single-engine fired %d", got, ref.Fired())
	}
}

// TestCrossInFlightAccounting checks InFlightFrames spans the whole wire:
// staged in the sender's outbound pipe before the flush, parked in the
// receiver's inbox after it, and gone once delivered. The conservation
// audit's per-link balance depends on this.
func TestCrossInFlightAccounting(t *testing.T) {
	const (
		rate  = 100 * sim.Gbps
		delay = 10 * sim.Microsecond
	)
	ea, eb := sim.NewEngine(), sim.NewEngine()
	a, _, src, _, _, rxB := crossPair(t, ea, eb, rate, delay)
	src.push(a.Pool.NewData(1, 0, 1, 0, 1000))
	a.Kick()

	// Window 1 on the sender: tx completes at 80ns, the frame is staged.
	ea.RunUntil(delay)
	if got := a.InFlightFrames(); got != 1 {
		t.Fatalf("staged frame: InFlightFrames = %d, want 1", got)
	}
	a.FlushCross()
	if got := a.InFlightFrames(); got != 1 {
		t.Fatalf("flushed frame: InFlightFrames = %d, want 1", got)
	}
	// Arrival is 80ns + 10µs, just past the first barrier.
	eb.RunUntil(delay)
	if got := a.InFlightFrames(); got != 1 {
		t.Fatalf("frame still in flight: InFlightFrames = %d, want 1", got)
	}
	if len(rxB.got) != 0 {
		t.Fatal("frame delivered before its arrival time")
	}
	eb.RunUntil(2 * delay)
	if len(rxB.got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(rxB.got))
	}
	want := 80*sim.Nanosecond + delay
	if rxB.times[0] != want {
		t.Fatalf("arrival at %v, want %v", rxB.times[0], want)
	}
	if got := a.InFlightFrames(); got != 0 {
		t.Fatalf("delivered frame still counted: InFlightFrames = %d, want 0", got)
	}
	// Conservation across pools: the frame was drawn from a's pool and the
	// sink still holds it, so the sender pool has exactly one outstanding.
	if out := a.Pool.Outstanding(); out != 1 {
		t.Fatalf("sender pool outstanding %d, want 1", out)
	}
}

// TestCrossSendPause checks PFC crosses the shard boundary: a pause emitted
// on one end pauses the far transmitter after flush + propagation, and the
// matching resume restarts it.
func TestCrossSendPause(t *testing.T) {
	const (
		rate  = 100 * sim.Gbps
		delay = 10 * sim.Microsecond
	)
	ea, eb := sim.NewEngine(), sim.NewEngine()
	a, b, srcA, _, _, rxB := crossPair(t, ea, eb, rate, delay)

	// b pauses a's data class at t=0.
	b.SendPause(pkt.ClassData, true)
	b.FlushCross()
	ea.RunUntil(2 * delay)
	eb.RunUntil(2 * delay)
	if !a.Paused(pkt.ClassData) {
		t.Fatal("pause frame did not pause the cross peer")
	}
	if a.PauseRx != 1 {
		t.Fatalf("PauseRx = %d, want 1", a.PauseRx)
	}

	// A data frame offered while paused must not transmit.
	srcA.push(a.Pool.NewData(1, 0, 1, 0, 1000))
	a.Kick()
	ea.RunUntil(3 * delay)
	a.FlushCross()
	eb.RunUntil(3 * delay)
	if a.TxPackets != 0 {
		t.Fatalf("paused port transmitted %d data frames", a.TxPackets)
	}

	// Resume releases it; the frame flows after the next flush.
	b.SendPause(pkt.ClassData, false)
	b.FlushCross()
	ea.RunUntil(5 * delay)
	a.FlushCross()
	eb.RunUntil(7 * delay)
	if a.TxPackets != 1 {
		t.Fatalf("resumed port transmitted %d data frames, want 1", a.TxPackets)
	}
	if len(rxB.got) != 1 {
		t.Fatalf("delivered %d data frames after resume, want 1", len(rxB.got))
	}
}

// TestCrossWrappedRings runs a sustained stream over a cross-shard link with
// barriers four times as frequent as the propagation delay, so both halves of
// the wire are loaded when work arrives: the outbound pipe has been emptied
// and refilled many times over, and the inbox still holds frames when the
// next flush appends to it. Order and exact arrival times must match the
// single-engine wire, and InFlightFrames must span both halves at every
// barrier. (The name is from when the halves were rings; what it pins is the
// hand-over between two queues that are never empty at the same time.)
func TestCrossWrappedRings(t *testing.T) {
	const (
		rate   = 100 * sim.Gbps
		delay  = 4 * sim.Microsecond
		window = delay / 4
		n      = 600
	)
	sizes := []int{1000, 64, 1500, 700, 256, 1200}
	feed := func(a *Port, src *fifoSource) {
		for i := 0; i < n; i++ {
			src.push(a.Pool.NewData(1, 0, 1, int64(i), sizes[i%len(sizes)]))
		}
		a.Kick()
	}

	ref := sim.NewEngine()
	a1, src1, rx1 := newPair(t, ref, rate, delay)
	feed(a1, src1)
	ref.Run()

	ea, eb := sim.NewEngine(), sim.NewEngine()
	a, b, src, _, _, rx := crossPair(t, ea, eb, rate, delay)
	feed(a, src)
	var spanned, flushes int
	g := sim.NewShardGroup([]*sim.Engine{ea, eb}, window, func(sim.Time) {
		if a.pipe.Len() > 0 {
			flushes++
			if b.inbox.Len() > 0 {
				spanned++
				if head, staged := b.inbox.Back(), a.pipe.Peek(); staged.At < head.At {
					t.Fatalf("staged frame arrives at %v, before the inbox tail at %v", staged.At, head.At)
				}
			}
		}
		sent := int(a.TxPackets)
		if a.Busy() {
			sent-- // counted at the start of serialization, launched at its end
		}
		if got, want := a.InFlightFrames(), sent-len(rx.got); got != want {
			t.Fatalf("InFlightFrames = %d with %d launched and %d delivered", got, sent, len(rx.got))
		}
		a.FlushCross()
		b.FlushCross()
	})
	g.RunUntil(ref.Now() + 2*delay)

	if flushes < 20 || spanned < flushes/2 {
		t.Fatalf("%d flushes, %d of them onto a loaded inbox: the stream does not keep both halves busy", flushes, spanned)
	}
	if len(rx.got) != n || len(rx1.got) != n {
		t.Fatalf("delivered %d cross, %d single-engine, want %d", len(rx.got), len(rx1.got), n)
	}
	for i, p := range rx.got {
		if p.Seq != int64(i) {
			t.Fatalf("out of order at %d: seq %d", i, p.Seq)
		}
		if rx.times[i] != rx1.times[i] {
			t.Fatalf("frame %d arrived at %v cross vs %v single-engine", i, rx.times[i], rx1.times[i])
		}
	}
	if got := ea.Fired() + eb.Fired(); got != ref.Fired() {
		t.Fatalf("cross run fired %d events, single-engine fired %d", got, ref.Fired())
	}
	if a.InFlightFrames() != 0 {
		t.Fatalf("drained link still reports %d frames in flight", a.InFlightFrames())
	}
}
