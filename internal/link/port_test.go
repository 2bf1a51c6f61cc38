package link

import (
	"math/rand"
	"testing"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// fifoSource is a minimal two-class source for tests: control first.
type fifoSource struct {
	q [pkt.NumClasses][]*pkt.Packet
}

func (s *fifoSource) push(p *pkt.Packet) { s.q[p.Kind.Pri()] = append(s.q[p.Kind.Pri()], p) }

func (s *fifoSource) Next(paused *[pkt.NumClasses]bool) *pkt.Packet {
	for class := pkt.NumClasses - 1; class >= 0; class-- {
		if paused[class] || len(s.q[class]) == 0 {
			continue
		}
		p := s.q[class][0]
		s.q[class] = s.q[class][1:]
		return p
	}
	return nil
}

// sink records deliveries.
type sink struct {
	got   []*pkt.Packet
	times []sim.Time
	eng   *sim.Engine
}

func (s *sink) Receive(p *pkt.Packet, on *Port) {
	s.got = append(s.got, p)
	s.times = append(s.times, s.eng.Now())
}

func newPair(t *testing.T, eng *sim.Engine, rate sim.Rate, delay sim.Time) (*Port, *fifoSource, *sink) {
	t.Helper()
	pool := pkt.NewPool()
	rx := &sink{eng: eng}
	src := &fifoSource{}
	a := NewPort(eng, &sink{eng: eng}, 0, rate, delay, pool)
	b := NewPort(eng, rx, 0, rate, delay, pool)
	Connect(a, b)
	a.SetSource(src)
	b.SetSource(&fifoSource{})
	return a, src, rx
}

// quietSource is fifoSource vouching for its silence, as fabric's FIFO
// egress does: every push in these tests is followed by a Kick.
type quietSource struct{ fifoSource }

func (s *quietSource) Quiet() bool { return len(s.q[0])+len(s.q[1]) == 0 }

// TestDeferredCompletion pins the plain event schedule around a deferred end
// of serialization. On a 100G, 1 µs link fed by a quiet source, f0 and f1
// (1000 B, 80 ns each) are queued and kicked at 0: f0's end (80 ns) is queued
// — the wire is idle — and launches f0 to arrive at 1080 ns; f1's end
// T = 160 ns is deferred behind it. Events scheduled before the kick take
// seqs below f1's reserved one, events scheduled at 100 ns seqs above it.
// Each case drives a reader or a writer at or around T; the arrivals, port
// counters and fired-event counts are what the queued schedule gives, worked
// out by hand in the comments, and queued counts what reached the heap.
func TestDeferredCompletion(t *testing.T) {
	const ns = sim.Nanosecond
	setup := func(t *testing.T, before func(eng *sim.Engine, a *Port, src *quietSource)) (*sim.Engine, *Port, *sink) {
		eng := sim.NewEngine()
		a, _, rx := newPair(t, eng, 100*sim.Gbps, sim.Microsecond)
		src := &quietSource{}
		a.SetSource(src)
		if before != nil {
			before(eng, a, src)
		}
		for i := 0; i < 2; i++ {
			src.push(a.Pool.NewData(1, 0, 1, int64(i)*1000, 1000))
		}
		a.Kick()
		return eng, a, rx
	}
	kickF2 := func(a *Port, src *quietSource) func() {
		return func() {
			src.push(a.Pool.NewData(1, 0, 1, 2000, 1000))
			a.Kick()
		}
	}
	check := func(t *testing.T, eng *sim.Engine, rx *sink, fired, queued uint64, arrivals ...sim.Time) {
		t.Helper()
		if len(rx.times) != len(arrivals) {
			t.Fatalf("arrivals %v, want %v", rx.times, arrivals)
		}
		for i := range arrivals {
			if rx.times[i] != arrivals[i] {
				t.Fatalf("arrivals %v, want %v", rx.times, arrivals)
			}
		}
		if got := eng.EventAllocs() + eng.EventRecycles(); eng.Fired() != fired || got != queued {
			t.Fatalf("fired %d, queued %d; want %d, %d", eng.Fired(), got, fired, queued)
		}
	}

	t.Run("kick at T, lower seq", func(t *testing.T) {
		// The kick runs before f1's end and commits it; the end then pulls
		// f2 (ends 240 ns, deferred, settled by the 1080 ns drain).
		eng, _, rx := setup(t, func(eng *sim.Engine, a *Port, src *quietSource) {
			eng.At(160*ns, kickF2(a, src))
		})
		eng.Run()
		// f0, f1, f2 ends, the kick, three drains; f2's end never queued.
		check(t, eng, rx, 7, 6, 1080*ns, 1160*ns, 1240*ns)
	})
	t.Run("kick at T, higher seq", func(t *testing.T) {
		// f1's end precedes the kick, which settles it and pulls f2 at once.
		eng, _, rx := setup(t, func(eng *sim.Engine, a *Port, src *quietSource) {
			eng.At(100*ns, func() { eng.At(160*ns, kickF2(a, src)) })
		})
		eng.Run()
		// f0, f1, f2 ends, the two kick events, three drains; f1's and f2's
		// ends never queued.
		check(t, eng, rx, 8, 6, 1080*ns, 1160*ns, 1240*ns)
	})
	t.Run("SendPause mid-frame", func(t *testing.T) {
		eng, a, rx := setup(t, func(eng *sim.Engine, a *Port, _ *quietSource) {
			eng.At(120*ns, func() { a.SendPause(pkt.ClassData, true) })
		})
		eng.Run()
		// The 64 B pause leaves at 120 ns (5.12 ns on the wire) and lands at
		// 1125.12 ns, between f0 and f1: f1 was still serializing.
		b := a.Peer()
		if b.PauseRx != 1 || b.pausedSince != 1125120*sim.Picosecond || b.RxPackets != 3 {
			t.Fatalf("peer: PauseRx %d, PausedSince %v, RxPackets %d; want 1, 1125.12ns, 3", b.PauseRx, b.pausedSince, b.RxPackets)
		}
		// f0 and f1 ends, the pause event, drains at 1080, 1125.12, 1160.
		check(t, eng, rx, 6, 6, 1080*ns, 1160*ns)
	})
	t.Run("SetDown mid-frame", func(t *testing.T) {
		var dropped []int64
		eng, a, rx := setup(t, func(eng *sim.Engine, a *Port, _ *quietSource) {
			a.SetAuditDrop(func(p *pkt.Packet, corrupt bool) {
				if corrupt {
					t.Errorf("frame %d dropped as corrupt", p.Seq)
				}
				dropped = append(dropped, p.Seq)
			})
			eng.At(120*ns, func() { a.SetDown(true) })
		})
		eng.Run()
		// f1 dies at the transmitter when its serialization ends; f0, on the
		// wire at the cut, dies on arrival at the peer.
		if a.FaultDrops != 1 || a.Peer().CutDrops != 1 || len(dropped) != 1 || dropped[0] != 1000 {
			t.Fatalf("FaultDrops %d, peer CutDrops %d, transmitter dropped %v; want 1, 1, [1000]", a.FaultDrops, a.Peer().CutDrops, dropped)
		}
		// f0 and f1 ends, the cut, the 1080 ns drain.
		check(t, eng, rx, 4, 4)
	})
	t.Run("Busy and InFlightFrames around T", func(t *testing.T) {
		eng, a, rx := setup(t, nil)
		eng.RunUntil(159 * ns)
		if !a.Busy() || a.InFlightFrames() != 1 || eng.Fired() != 1 || eng.Pending() != 2 {
			t.Fatalf("before T: Busy %v, InFlightFrames %d, Fired %d, Pending %d; want true, 1, 1, 2",
				a.Busy(), a.InFlightFrames(), eng.Fired(), eng.Pending())
		}
		// A run to T would have fired f1's end: it is due, and counted,
		// before anything reads the port.
		eng.RunUntil(160 * ns)
		if eng.Fired() != 2 || eng.Pending() != 1 {
			t.Fatalf("at T: Fired %d, Pending %d; want 2, 1", eng.Fired(), eng.Pending())
		}
		if a.Busy() || a.InFlightFrames() != 2 {
			t.Fatalf("at T: Busy %v, InFlightFrames %d; want false, 2", a.Busy(), a.InFlightFrames())
		}
		eng.Run()
		// f0 and f1 ends, two drains; f1's end never queued.
		check(t, eng, rx, 4, 3, 1080*ns, 1160*ns)
	})
}

func TestPortDeliveryTiming(t *testing.T) {
	eng := sim.NewEngine()
	a, src, rx := newPair(t, eng, 100*sim.Gbps, 5*sim.Microsecond)
	pool := a.Pool
	src.push(pool.NewData(1, 0, 1, 0, 1000))
	a.Kick()
	eng.Run()
	if len(rx.got) != 1 {
		t.Fatalf("delivered %d", len(rx.got))
	}
	// 80ns serialization + 5us propagation.
	want := 80*sim.Nanosecond + 5*sim.Microsecond
	if rx.times[0] != want {
		t.Fatalf("arrival at %v, want %v", rx.times[0], want)
	}
}

func TestPortBackToBackSerialization(t *testing.T) {
	eng := sim.NewEngine()
	a, src, rx := newPair(t, eng, 100*sim.Gbps, 0)
	for i := 0; i < 3; i++ {
		src.push(a.Pool.NewData(1, 0, 1, int64(i)*1000, 1000))
	}
	a.Kick()
	eng.Run()
	if len(rx.got) != 3 {
		t.Fatalf("delivered %d", len(rx.got))
	}
	for i, ts := range rx.times {
		want := sim.Time(i+1) * 80 * sim.Nanosecond
		if ts != want {
			t.Fatalf("packet %d at %v, want %v", i, ts, want)
		}
	}
	if a.TxBytes != 3000 || a.TxPackets != 3 {
		t.Fatalf("tx counters: %d bytes %d pkts", a.TxBytes, a.TxPackets)
	}
}

func TestPortControlPriority(t *testing.T) {
	eng := sim.NewEngine()
	a, src, rx := newPair(t, eng, 100*sim.Gbps, 0)
	src.push(a.Pool.NewData(1, 0, 1, 0, 1000))
	src.push(a.Pool.NewData(1, 0, 1, 1000, 1000))
	src.push(a.Pool.NewControl(pkt.Ack, 1, 1, 0))
	a.Kick()
	eng.Run()
	if len(rx.got) != 3 {
		t.Fatalf("delivered %d", len(rx.got))
	}
	// First pull happens before the ACK is queued? No: all pushed before
	// Kick, so the control frame must be serialized first.
	if rx.got[0].Kind != pkt.Ack {
		t.Fatalf("first delivery = %v, want ACK", rx.got[0].Kind)
	}
}

func TestPortPauseResume(t *testing.T) {
	eng := sim.NewEngine()
	a, src, rx := newPair(t, eng, 100*sim.Gbps, sim.Microsecond)
	b := a.Peer()

	src.push(a.Pool.NewData(1, 0, 1, 0, 1000))
	src.push(a.Pool.NewData(1, 0, 1, 1000, 1000))
	// Pause a's data class at t=0 via a PFC frame from b.
	b.SendPause(pkt.ClassData, true)
	eng.RunUntil(10 * sim.Microsecond)
	a.Kick()
	eng.RunUntil(20 * sim.Microsecond)
	if len(rx.got) != 0 {
		t.Fatalf("data flowed while paused: %d", len(rx.got))
	}
	if !a.Paused(pkt.ClassData) {
		t.Fatal("a not paused")
	}
	if a.PauseRx != 1 {
		t.Fatalf("PauseRx = %d", a.PauseRx)
	}
	// Control class still flows while data is paused.
	src.push(a.Pool.NewControl(pkt.Ack, 1, 1, 0))
	a.Kick()
	eng.RunUntil(30 * sim.Microsecond)
	if len(rx.got) != 1 || rx.got[0].Kind != pkt.Ack {
		t.Fatalf("control did not bypass pause: %v", rx.got)
	}
	// Resume releases the queue.
	b.SendPause(pkt.ClassData, false)
	eng.Run()
	if len(rx.got) != 3 {
		t.Fatalf("after resume delivered %d, want 3", len(rx.got))
	}
	if a.pausedTotal <= 0 {
		t.Fatal("PausedTotal not accumulated")
	}
}

func TestPortMidFrameNotInterrupted(t *testing.T) {
	eng := sim.NewEngine()
	// Slow link so the frame takes 8us to serialize.
	a, src, rx := newPair(t, eng, sim.Gbps, 0)
	b := a.Peer()
	src.push(a.Pool.NewData(1, 0, 1, 0, 1000))
	a.Kick()
	// Pause arrives mid-frame: the in-flight frame must still complete.
	eng.RunUntil(sim.Microsecond)
	b.SendPause(pkt.ClassData, true)
	eng.RunUntil(100 * sim.Microsecond)
	if len(rx.got) != 1 {
		t.Fatalf("in-flight frame dropped by pause: %d", len(rx.got))
	}
}

func TestPortRateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-rate port")
		}
	}()
	NewPort(sim.NewEngine(), nil, 0, 0, 0, pkt.NewPool())
}

func TestPortKickWhileUnconnected(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPort(eng, nil, 0, sim.Gbps, 0, pkt.NewPool())
	p.Kick() // no source, no peer: must not panic
	p.SendPause(pkt.ClassData, true)
	eng.Run()
}

func TestPortSetDownFlushesWire(t *testing.T) {
	eng := sim.NewEngine()
	a, src, rx := newPair(t, eng, 100*sim.Gbps, 5*sim.Microsecond)
	b := a.Peer()
	for i := 0; i < 3; i++ {
		src.push(a.Pool.NewData(1, 0, 1, int64(i)*1000, 1000))
	}
	a.Kick()
	// At 200ns frames 0,1 are on the wire (serialized at 80/160ns), frame 2
	// is mid-serialization (completes at 240ns).
	eng.RunUntil(200 * sim.Nanosecond)
	a.SetDown(true)
	if !a.down {
		t.Fatal("port not down")
	}
	// Cut-at-delivery: the wire is not purged at the cut — the in-flight
	// frames keep their arrival events and are destroyed at the receiving
	// port when they land with a stale epoch. This keeps the event
	// schedule identical between single-engine and sharded builds.
	if a.FaultDrops != 0 || b.CutDrops != 0 {
		t.Fatalf("cut destroyed frames early: FaultDrops=%d CutDrops=%d", a.FaultDrops, b.CutDrops)
	}
	// The mid-serialization frame dies at the transmitter when its
	// serialization completes; the two wire frames die on arrival at b.
	eng.RunUntil(10 * sim.Microsecond)
	if a.FaultDrops != 1 {
		t.Fatalf("mid-serialization frame not cut: FaultDrops = %d, want 1", a.FaultDrops)
	}
	if b.CutDrops != 2 {
		t.Fatalf("in-flight frames not destroyed at delivery: CutDrops = %d, want 2", b.CutDrops)
	}
	if len(rx.got) != 0 {
		t.Fatalf("frames crossed a down link: %d", len(rx.got))
	}
	// MAC-injected PFC offered to a down port is destroyed, not queued.
	a.SendPause(pkt.ClassData, true)
	if a.FaultDrops != 2 {
		t.Fatalf("PFC frame survived the down port: FaultDrops = %d, want 2", a.FaultDrops)
	}
	// Link-up kicks the transmitter and traffic resumes.
	src.push(a.Pool.NewData(1, 0, 1, 3000, 1000))
	a.SetDown(false)
	eng.Run()
	if len(rx.got) != 1 {
		t.Fatalf("after link-up delivered %d, want 1", len(rx.got))
	}
}

func TestPortSetDownClearsPauseState(t *testing.T) {
	eng := sim.NewEngine()
	a, _, _ := newPair(t, eng, 100*sim.Gbps, 0)
	b := a.Peer()
	b.SendPause(pkt.ClassData, true)
	eng.RunUntil(10 * sim.Microsecond)
	if !a.Paused(pkt.ClassData) {
		t.Fatal("pause frame did not arrive")
	}
	open := a.PausedTotalAt(eng.Now())
	if open <= 0 {
		t.Fatal("open pause interval not visible in PausedTotalAt")
	}
	if a.pausedTotal != 0 {
		t.Fatalf("PausedTotal = %v before any resume, want 0", a.pausedTotal)
	}
	// Downing the link reinitializes the MAC: pause state clears and the
	// open interval folds into pausedTotal so no paused time is lost.
	a.SetDown(true)
	if a.Paused(pkt.ClassData) {
		t.Fatal("pause state survived link-down")
	}
	if a.pausedTotal != open {
		t.Fatalf("open pause interval lost at shutdown: PausedTotal = %v, want %v", a.pausedTotal, open)
	}
	if a.PausedTotalAt(eng.Now()) != open {
		t.Fatalf("PausedTotalAt double-counts after fold: %v", a.PausedTotalAt(eng.Now()))
	}
}

func TestPortPausedTotalAtOpenInterval(t *testing.T) {
	eng := sim.NewEngine()
	a, _, _ := newPair(t, eng, 100*sim.Gbps, 0)
	b := a.Peer()
	b.SendPause(pkt.ClassData, true)
	eng.RunUntil(2 * sim.Microsecond)
	since := a.pausedSince
	// Pause still open at "simulation end": pausedTotal alone misses it.
	if got, want := a.PausedTotalAt(eng.Now()), eng.Now()-since; got != want {
		t.Fatalf("PausedTotalAt = %v, want %v", got, want)
	}
	b.SendPause(pkt.ClassData, false)
	eng.Run()
	// After resume the two agree.
	if a.PausedTotalAt(eng.Now()) != a.pausedTotal {
		t.Fatalf("closed interval: PausedTotalAt %v != PausedTotal %v",
			a.PausedTotalAt(eng.Now()), a.pausedTotal)
	}
}

func TestPortImpairmentRateAndDelay(t *testing.T) {
	eng := sim.NewEngine()
	a, src, rx := newPair(t, eng, 100*sim.Gbps, 0)
	// Half rate + 1us extra propagation: 1000B now takes 160ns to serialize
	// and lands 1us later.
	a.SetImpairment(0.5, sim.Microsecond, 0, nil)
	src.push(a.Pool.NewData(1, 0, 1, 0, 1000))
	a.Kick()
	eng.Run()
	if len(rx.got) != 1 {
		t.Fatalf("delivered %d", len(rx.got))
	}
	want := 160*sim.Nanosecond + sim.Microsecond
	if rx.times[0] != want {
		t.Fatalf("degraded arrival at %v, want %v", rx.times[0], want)
	}
	// Restore: nominal timing again.
	a.SetImpairment(1, 0, 0, nil)
	src.push(a.Pool.NewData(1, 0, 1, 1000, 1000))
	t0 := eng.Now()
	a.Kick()
	eng.Run()
	if got, want := rx.times[1]-t0, 80*sim.Nanosecond; got != want {
		t.Fatalf("restored arrival after %v, want %v", got, want)
	}
}

func TestPortImpairmentJitterMonotone(t *testing.T) {
	eng := sim.NewEngine()
	a, src, rx := newPair(t, eng, 100*sim.Gbps, 0)
	a.SetImpairment(1, 0, 200*sim.Nanosecond, rand.New(rand.NewSource(3)))
	for i := 0; i < 50; i++ {
		src.push(a.Pool.NewData(1, 0, 1, int64(i)*1000, 1000))
	}
	a.Kick()
	eng.Run()
	if len(rx.got) != 50 {
		t.Fatalf("delivered %d, want 50", len(rx.got))
	}
	for i := 1; i < len(rx.times); i++ {
		if rx.times[i] < rx.times[i-1] {
			t.Fatalf("jitter reordered the wire: arrival %d at %v after %v",
				i, rx.times[i], rx.times[i-1])
		}
	}
	for i, seq := int64(0), int64(0); i < 50; i++ {
		if rx.got[i].Seq != seq {
			t.Fatalf("delivery order broken at %d: seq %d", i, rx.got[i].Seq)
		}
		seq += 1000
	}
}

func TestPortImpairmentValidation(t *testing.T) {
	eng := sim.NewEngine()
	a, _, _ := newPair(t, eng, 100*sim.Gbps, 0)
	for name, fn := range map[string]func(){
		"zero factor":        func() { a.SetImpairment(0, 0, 0, nil) },
		"factor above one":   func() { a.SetImpairment(1.5, 0, 0, nil) },
		"negative delay":     func() { a.SetImpairment(1, -sim.Microsecond, 0, nil) },
		"jitter without rng": func() { a.SetImpairment(1, 0, sim.Microsecond, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
