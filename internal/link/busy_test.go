package link_test

import (
	"runtime"
	"testing"

	"mlcc/internal/fabric"
	"mlcc/internal/link"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// busyFeed emits MTU frames back to back and samples the transmitter's
// in-flight depth at every pull — right after the previous frame's launch,
// which is when the wire is deepest.
type busyFeed struct {
	port      *link.Port
	remaining int
	peak      int
}

func (f *busyFeed) Next(*[pkt.NumClasses]bool) *pkt.Packet {
	f.peak = max(f.peak, f.port.InFlightFrames())
	if f.remaining == 0 {
		return nil
	}
	f.remaining--
	return f.port.Pool.NewData(1, 1, 2, 0, pkt.DefaultMTU)
}

// freeSink returns every delivered frame to the pool.
type freeSink struct{ pool *pkt.Pool }

func (s freeSink) Receive(p *pkt.Packet, _ *link.Port) { s.pool.Put(p) }

// prime fills the pool's free list and the engines' event free lists, so the
// link under test is the only thing left that could allocate.
func prime(pool *pkt.Pool, engines ...*sim.Engine) {
	var q pkt.Queue
	for i := 0; i < 64; i++ {
		q.Push(pool.Get())
	}
	for p := q.Pop(); p != nil; p = q.Pop() {
		pool.Put(p)
	}
	for _, e := range engines {
		for i := 0; i < 8; i++ {
			e.After(0, func() {})
		}
		e.Run()
	}
}

// mallocs counts heap allocations made by f, without AllocsPerRun's unmeasured
// first call: the claim below is about a link's first frame.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestLinkBusyAllocFree is the 0-alloc proof for a wire that never idles:
// one Kick, 10 000 back-to-back frames on a 100G / 1 µs hop, on a link that
// has never carried a frame. The wire is a list through the frames
// themselves, so there is nothing to warm up — locally, across shards
// (pipe → FlushCross → inbox), and behind a switch's FIFO egress, whose
// serialization ends are deferred, alike.
func TestLinkBusyAllocFree(t *testing.T) {
	const (
		rate  = 100 * sim.Gbps
		delay = sim.Microsecond
		n     = 10000
	)
	t.Run("local", func(t *testing.T) {
		e, pool := sim.NewEngine(), pkt.NewPool()
		a := link.NewPort(e, freeSink{pool}, 0, rate, delay, pool)
		z := link.NewPort(e, freeSink{pool}, 0, rate, delay, pool)
		link.Connect(a, z)
		feed := &busyFeed{port: a, remaining: n}
		a.SetSource(feed)
		z.SetSource(&busyFeed{port: z})
		prime(pool, e)
		if got := mallocs(func() { a.Kick(); e.Run() }); got != 0 {
			t.Errorf("busy link allocated %d times over its first %d frames", got, n)
		}
		if z.RxPackets != n || feed.peak < 8 {
			t.Fatalf("delivered %d of %d frames, peak in-flight depth %d: the link was never busy", z.RxPackets, n, feed.peak)
		}
	})
	t.Run("cross", func(t *testing.T) {
		// One pool for both ends (the engines run in turn here), so frames
		// freed at z are the ones a sends next.
		ea, ez, pool := sim.NewEngine(), sim.NewEngine(), pkt.NewPool()
		a := link.NewPort(ea, freeSink{pool}, 0, rate, delay, pool)
		z := link.NewPort(ez, freeSink{pool}, 0, rate, delay, pool)
		link.ConnectCross(a, z)
		feed := &busyFeed{port: a, remaining: n}
		a.SetSource(feed)
		z.SetSource(&busyFeed{port: z})
		prime(pool, ea, ez)
		spanned := 0
		got := mallocs(func() {
			a.Kick()
			// Barriers every half propagation delay, so each finds frames on
			// both halves of the wire.
			for now := delay / 2; z.RxPackets < n; now += delay / 2 {
				ea.RunUntil(now)
				if staged, inbound := a.WireHalves(); staged > 0 && inbound > 0 {
					spanned++
				}
				a.FlushCross()
				ez.RunUntil(now)
			}
		})
		if got != 0 {
			t.Errorf("busy cross-shard link allocated %d times over its first %d frames", got, n)
		}
		if feed.peak < 8 || spanned == 0 || pool.Outstanding() != 0 {
			t.Fatalf("peak depth %d, %d barriers with both halves loaded, %d packets outstanding", feed.peak, spanned, pool.Outstanding())
		}
	})
	t.Run("fabric", func(t *testing.T) {
		// u → [switch] → z: each frame arriving at the switch fills its FIFO
		// egress and the Kick that follows empties it, so the egress pulls
		// from a quiet source onto a loaded wire and every serialization end
		// but the first is deferred, then settled.
		e, pool := sim.NewEngine(), pkt.NewPool()
		sw := fabric.New(e, pool, fabric.Config{ID: 3, BufferBytes: 1 << 20})
		u := link.NewPort(e, freeSink{pool}, 0, rate, delay, pool)
		z := link.NewPort(e, freeSink{pool}, 0, rate, delay, pool)
		link.Connect(u, sw.AddPort(rate, delay))
		link.Connect(sw.AddPort(rate, delay), z)
		sw.AddRoute(2, 1) // busyFeed's frames are for host 2
		feed := &busyFeed{port: u, remaining: n}
		u.SetSource(feed)
		z.SetSource(&busyFeed{port: z})
		prime(pool, e)
		if got := mallocs(func() { u.Kick(); e.Run() }); got != 0 {
			t.Errorf("switched busy link allocated %d times over its first %d frames", got, n)
		}
		settled := e.Fired() - e.EventAllocs() - e.EventRecycles()
		if z.RxPackets != n || settled != n-1 {
			t.Fatalf("delivered %d of %d frames, %d serialization ends settled (want %d)", z.RxPackets, n, settled, n-1)
		}
	})
}
