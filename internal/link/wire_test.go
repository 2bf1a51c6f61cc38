package link

import (
	"math/rand"
	"testing"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// TestWireAgainstModel drives the ring with seeded op streams against a
// plain-slice FIFO: same order, same length, same front and back after every
// op, popped slots cleared, power-of-two capacity that only ever doubles —
// through several growths that happen while the head is mid-buffer, which is
// where an unwrap bug would hide.
func TestWireAgainstModel(t *testing.T) {
	for _, c := range []struct {
		name    string
		seed    int64
		ops     int
		pushPct int // phase 1 push bias; phase 2 drains at 100-pushPct
	}{
		{"slow climb", 1, 4000, 55},
		{"fast climb", 2, 2000, 80},
		{"sawtooth", 3, 20000, 51},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			var w wire
			var model []flight
			var seq int64
			wrappedGrowths := 0

			check := func() {
				t.Helper()
				if w.n != len(model) {
					t.Fatalf("ring holds %d, model %d", w.n, len(model))
				}
				if len(model) > 0 && (*w.front() != model[0] || *w.back() != model[len(model)-1]) {
					t.Fatalf("front/back = %v/%v, model %v/%v", *w.front(), *w.back(), model[0], model[len(model)-1])
				}
				if n := len(w.buf); n&(n-1) != 0 {
					t.Fatalf("capacity %d is not a power of two", n)
				}
			}
			push := func() {
				seq++
				f := flight{at: sim.Time(seq), p: &pkt.Packet{Seq: seq}, epoch: uint32(seq % 3)}
				before := len(w.buf)
				if w.n == before && w.head != 0 {
					wrappedGrowths++
				}
				w.push(f)
				model = append(model, f)
				if after := len(w.buf); after != before && after != max(1, 2*before) {
					t.Fatalf("capacity went %d → %d, want doubling", before, after)
				}
			}
			pop := func() {
				slot, before := w.head, len(w.buf)
				got := w.pop()
				if got != model[0] {
					t.Fatalf("popped %v, model head %v", got, model[0])
				}
				model = model[1:]
				if w.buf[slot] != (flight{}) {
					t.Fatalf("popped slot %d still holds %v", slot, w.buf[slot])
				}
				if len(w.buf) != before {
					t.Fatalf("capacity changed on pop: %d → %d", before, len(w.buf))
				}
			}

			for phase, pct := range []int{c.pushPct, 100 - c.pushPct} {
				for i := 0; i < c.ops; i++ {
					if len(model) == 0 || rng.Intn(100) < pct {
						push()
					} else {
						pop()
					}
					check()
				}
				if phase == 0 && wrappedGrowths < 3 {
					t.Fatalf("only %d growths with head ≠ 0; the stream does not exercise unwrapping", wrappedGrowths)
				}
			}
			for len(model) > 0 {
				pop()
			}
			for i, f := range w.buf {
				if f != (flight{}) {
					t.Fatalf("drained ring retains %v in slot %d", f, i)
				}
			}
		})
	}
}

// busyFeed emits MTU frames back to back and samples the transmitter's
// in-flight depth at every pull — right after the previous frame's launch,
// which is when the wire is deepest.
type busyFeed struct {
	port      *Port
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

func (s freeSink) Receive(p *pkt.Packet, _ *Port) { s.pool.Put(p) }

// TestLinkBusyAllocFree is the 0-alloc proof for a wire that never idles:
// one Kick, thousands of back-to-back frames on a 100G / 1 µs hop. Storage
// must follow frames in flight (≈ 13 here), not the length of the busy
// period.
func TestLinkBusyAllocFree(t *testing.T) {
	e := sim.NewEngine()
	pool := pkt.NewPool()
	a := NewPort(e, freeSink{pool}, 0, 100*sim.Gbps, sim.Microsecond, pool)
	z := NewPort(e, freeSink{pool}, 0, 100*sim.Gbps, sim.Microsecond, pool)
	Connect(a, z)
	feed := &busyFeed{port: a}
	a.SetSource(feed)
	z.SetSource(&busyFeed{port: z})
	burst := func(n int) {
		feed.remaining = n
		a.Kick()
		e.Run()
	}
	burst(1024)
	if n := testing.AllocsPerRun(5, func() { burst(10000) }); n != 0 {
		t.Errorf("busy link allocated %v per 10 000-frame burst", n)
	}
	if feed.peak < 8 {
		t.Fatalf("peak in-flight depth %d: the link was never busy", feed.peak)
	}
	if c := len(a.pipe.buf); c > 2*feed.peak {
		t.Errorf("wire capacity %d for a peak of %d frames in flight", c, feed.peak)
	}
}
