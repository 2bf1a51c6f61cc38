package link

import (
	"math/rand"
	"testing"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// TestWireAgainstModel drives one transmit direction — launches under
// jitter, MAC-injected PFC frames, wire cuts, the clock — with seeded op
// streams against a plain-slice model of the wire: deliveries happen in
// launch order at exactly the arrival time stamped into the frame, arrival
// times never regress (jitter's lastAt clamp, SendPause's tail clamp),
// InFlightFrames is launched − delivered after every op, a frame launched
// before a cut dies at its arrival time, and a delivered frame is off the
// wire's list entirely.
func TestWireAgainstModel(t *testing.T) {
	const delay = 10 * sim.Microsecond
	type flight struct {
		p   *pkt.Packet // nil for a PFC frame: the receiving MAC consumes it
		at  sim.Time
		cut bool
	}
	for _, c := range []struct {
		name      string
		seed      int64
		ops       int
		launchPct int // phase 1 launch bias; phase 2 runs at 100-launchPct
	}{
		{"slow climb", 1, 4000, 55},
		{"fast climb", 2, 2000, 80},
		{"sawtooth", 3, 20000, 51},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			eng := sim.NewEngine()
			a, _, rx := newPair(t, eng, 100*sim.Gbps, delay)
			b := a.Peer()
			a.SetImpairment(1, 0, 2*sim.Microsecond, rand.New(rand.NewSource(c.seed)))
			var model []flight
			var seq, delivered, macRx, cuts int64
			var scratch pkt.Queue
			peak, flaps := 0, 0

			launched := func(p *pkt.Packet) {
				t.Helper()
				tail := a.pipe.Back()
				if p != nil && tail != p {
					t.Fatalf("launched frame %v is not the wire's tail %v", p, tail)
				}
				if n := len(model); n > 0 && tail.At < model[n-1].at {
					t.Fatalf("arrival went back: %v after %v", tail.At, model[n-1].at)
				}
				if tail.At < eng.Now()+delay {
					t.Fatalf("arrival %v is sooner than propagation allows at %v", tail.At, eng.Now())
				}
				model = append(model, flight{p: p, at: tail.At})
			}
			advance := func(dt sim.Time) {
				t.Helper()
				eng.RunUntil(eng.Now() + dt)
				for len(model) > 0 && model[0].at <= eng.Now() {
					f := model[0]
					model = model[1:]
					switch {
					case f.cut:
						cuts++
					case f.p == nil:
						macRx++
					default:
						if int(delivered) >= len(rx.got) || rx.got[delivered] != f.p || rx.times[delivered] != f.at {
							t.Fatalf("delivery %d: want %v at %v, sink has %d frames", delivered, f.p, f.at, len(rx.got))
						}
						// Off the list: a frame still linked could not join another.
						scratch.Push(f.p)
						scratch.Pop()
						delivered++
					}
				}
				if int(delivered) != len(rx.got) || b.CutDrops != cuts || b.RxPackets != delivered+macRx {
					t.Fatalf("delivered %d cut %d rx %d, model %d %d %d", len(rx.got), b.CutDrops, b.RxPackets, delivered, cuts, delivered+macRx)
				}
			}

			for phase, pct := range []int{c.launchPct, 100 - c.launchPct} {
				for i := 0; i < c.ops; i++ {
					switch r := rng.Intn(100); {
					case r < pct-5:
						seq++
						p := a.Pool.NewData(1, 0, 1, seq, 64+rng.Intn(1400))
						a.launch(p, eng.Now()+delay)
						launched(p)
					case r < pct:
						a.SendPause(pkt.ClassData, rng.Intn(2) == 0)
						launched(nil)
					case r == 99 && len(model) > 0 && flaps < 3:
						flaps++
						a.SetDown(true)
						a.SetDown(false)
						for j := range model {
							model[j].cut = true
						}
					default:
						advance(sim.Time(rng.Int63n(int64(delay / 64))))
					}
					if got := a.InFlightFrames(); got != len(model) {
						t.Fatalf("InFlightFrames = %d, model holds %d", got, len(model))
					}
					peak = max(peak, len(model))
				}
				if phase == 0 && peak < 100 {
					t.Fatalf("wire never held more than %d frames; the stream does not load it", peak)
				}
			}
			for len(model) > 0 { // jitter on top of SendPause's tail clamp pushes arrivals out
				advance(model[len(model)-1].at - eng.Now())
			}
			if a.InFlightFrames() != 0 || a.pipe.Peek() != nil || a.pipe.Back() != nil {
				t.Fatalf("drained wire still holds %d frames", a.InFlightFrames())
			}
			if cuts == 0 || macRx == 0 {
				t.Fatalf("stream had %d cut frames and %d PFC frames; want both", cuts, macRx)
			}
		})
	}
}
