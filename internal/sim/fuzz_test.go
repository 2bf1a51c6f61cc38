package sim

import (
	"sort"
	"testing"
)

// FuzzEngineSchedule drives the pooled-event engine with a fuzz-decoded op
// sequence and checks it against a reference model: a plain list of every
// event ever scheduled, in schedule order, with its time and fate. Ops from
// the top level schedule (At/After), cancel through Timer handles (including
// stale handles to fired events) and drain partially (RunUntil). Three more
// op codes arm callbacks that re-enter the engine while it is mid-pop: one
// schedules children at Now() and later, one cancels a run of earlier
// handles — enough of them, given a deep queue, to trigger compaction from
// inside a callback — and one cancels a handle and re-arms a replacement,
// the pacing pattern of hosts and PFQs.
//
// The oracle: events fire at their scheduled time, at most once and never
// after a cancel; whatever is scheduled during a run has a later key than
// the event that scheduled it, so the whole fired sequence must equal the
// surviving model entries stable-sorted by time (schedule order breaks
// ties). After every top-level op the engine's live count must match the
// model, a drain must leave nothing due behind, and the queue slice must
// satisfy the heap invariant. These pin what pooling and compaction make
// subtle: recycling must never let a stale Timer cancel an unrelated event
// that reuses its struct, and the (at, seq) order must survive compaction.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{0, 10, 1, 5, 3, 20, 0, 5, 2, 0, 3, 255})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 1, 2, 1, 3, 0})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 2, 7, 2, 6, 2, 5, 2, 4, 3, 200})
	f.Add([]byte{4, 1, 3, 2, 0, 1, 0, 2, 5, 1, 0, 2, 6, 2, 1, 3, 3, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		eng := NewEngine()
		type ref struct {
			at              Time
			fired, canceled bool
		}
		var model []ref
		var timers []Timer
		var fired []int
		live := 0 // model entries neither fired nor cancelled
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}

		// schedule arms event number len(model) at Now()+d; then, if non-nil,
		// runs inside its callback after the model checks.
		schedule := func(d Time, then func()) {
			id := len(model)
			at := eng.Now() + d
			model = append(model, ref{at: at})
			live++
			timers = append(timers, eng.At(at, func() {
				r := &model[id]
				if r.fired || r.canceled || eng.Now() != r.at {
					t.Fatalf("event %d (at %v) fired at %v with fired=%v canceled=%v", id, r.at, eng.Now(), r.fired, r.canceled)
				}
				r.fired = true
				live--
				fired = append(fired, id)
				if then != nil {
					then()
				}
			}))
		}
		// cancel goes through handle i, which may be stale or already
		// cancelled; the model decides whether it should have any effect.
		cancel := func(i int) {
			r := &model[i]
			pending := !r.fired && !r.canceled
			if timers[i].Active() != pending {
				t.Fatalf("handle %d: Active() = %v, model says %v", i, !pending, pending)
			}
			timers[i].Cancel()
			if pending {
				r.canceled = true
				live--
			}
			if timers[i].Active() || timers[i].Canceled() != r.canceled {
				t.Fatalf("handle %d after Cancel: Active() = %v, Canceled() = %v, model canceled = %v",
					i, timers[i].Active(), timers[i].Canceled(), r.canceled)
			}
		}
		// check runs after every top-level op; drained says the op was a
		// drain, after which nothing at or before Now() may still be pending.
		check := func(op byte, drained bool) {
			if eng.Pending() != live {
				t.Fatalf("after op %d: Pending() = %d, model has %d live", op, eng.Pending(), live)
			}
			if i := heapViolation(eng); i >= 0 {
				t.Fatalf("after op %d: heap invariant broken at slot %d of %d", op, i, eng.PendingRaw())
			}
			if !drained {
				return
			}
			for id, r := range model {
				if !r.fired && !r.canceled && r.at <= eng.Now() {
					t.Fatalf("after op %d: event %d (at %v) left pending by a drain to %v", op, id, r.at, eng.Now())
				}
			}
		}

		for pos < len(data) {
			op := next() % 8
			switch op {
			case 0, 1: // At / After with a bounded delta — identical semantics here
				schedule(Time(next())*Microsecond, nil)
			case 2: // cancel an arbitrary handle, possibly stale or already cancelled
				if len(timers) > 0 {
					cancel(int(next()) % len(timers))
				}
			case 3, 7: // partial drain
				eng.RunUntil(eng.Now() + Time(next())*Microsecond)
			case 4: // callback pushes during the pop: one child at Now(), the rest later
				d, kids, gap := next(), int(next()%4), Time(next())*Microsecond
				schedule(Time(d)*Microsecond, func() {
					for k := 0; k <= kids; k++ {
						schedule(Time(k)*gap, nil)
					}
				})
			case 5: // callback cancels a run of earlier handles; a long run compacts mid-pop
				d, from, run := next(), int(next()), int(next())
				schedule(Time(d)*Microsecond, func() {
					for k := 0; k < run; k++ {
						cancel((from + k) % len(timers))
					}
				})
			case 6: // callback cancels one handle and re-arms a replacement
				d, i, again := next(), int(next()), Time(next())*Microsecond
				schedule(Time(d)*Microsecond, func() {
					cancel(i % len(timers))
					schedule(again, nil)
				})
			}
			check(op, op == 3 || op == 7)
		}
		eng.Run()

		var want []int
		for id, r := range model {
			if !r.canceled {
				want = append(want, id)
			}
		}
		// Engine order is (at, schedule seq); schedule seq is insertion order,
		// so a stable sort of the surviving model entries by time is the oracle.
		sort.SliceStable(want, func(i, j int) bool { return model[want[i]].at < model[want[j]].at })

		if len(fired) != len(want) {
			t.Fatalf("fired %d events, model expects %d", len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("firing order diverged at %d: got event %d (at %v), want %d (at %v)",
					i, fired[i], model[fired[i]].at, want[i], model[want[i]].at)
			}
		}
		if eng.Pending() != 0 {
			t.Fatalf("%d events still pending after Run", eng.Pending())
		}
		if eng.Fired() != uint64(len(fired)) {
			t.Fatalf("Fired() = %d, callbacks ran %d times", eng.Fired(), len(fired))
		}
	})
}
