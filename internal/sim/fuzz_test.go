package sim

import (
	"sort"
	"testing"
)

// FuzzEngineSchedule drives the pooled-event engine with a fuzz-decoded op
// sequence and checks it against a reference model: a plain list of every
// event ever scheduled or deferred, in seq order, with its time and fate.
// Ops from the top level schedule (At/After), cancel through Timer handles
// (including stale handles to fired events) and drain partially (RunUntil).
// Three more op codes arm callbacks that re-enter the engine while it is
// mid-pop: one schedules children at Now() and later, one cancels a run of
// earlier handles — enough of them, given a deep queue, to trigger
// compaction from inside a callback — and one cancels a handle and re-arms a
// replacement, the pacing pattern of hosts and PFQs. Four drive deferred
// keys the way link.Port does: defer one, settle one when it is due (a
// reader), commit one not yet due or settle it (a writer), and, from inside
// a callback, read the counts after settling a key, then defer or write.
//
// The oracle: a deferred key is an ordinary model event. Events fire at
// their time, at most once, never after a cancel or a settle, and in
// strictly increasing (time, seq) order — whatever is scheduled or committed
// during a run has a later key than the event running — so the whole fired
// sequence must equal the surviving, never-settled model entries
// stable-sorted by time (seq breaks ties). A key is due exactly when its
// entry precedes the firing event, or between runs the last drain's clock.
// After every op, Fired() counts fired, settled and due entries, Pending()
// the other live ones, PendingRaw() − Pending() the cancelled slots still
// queued; no hole is left at the root, a drain leaves nothing due queued,
// and the queue satisfies the heap invariant. These pin what pooling,
// compaction, the root hole and deferral make subtle: recycling must never
// let a stale Timer cancel an unrelated event that reuses its struct, and
// the (at, seq) order must survive compaction and commits.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{0, 10, 1, 5, 3, 20, 0, 5, 2, 0, 3, 255})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 1, 2, 1, 3, 0})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 2, 7, 2, 6, 2, 5, 2, 4, 3, 200})
	f.Add([]byte{4, 1, 3, 2, 0, 1, 0, 2, 5, 1, 0, 2, 6, 2, 1, 3, 3, 9})
	f.Add([]byte{8, 0, 5, 8, 1, 0, 0, 5, 3, 5, 9, 0, 10, 1, 11, 2, 2, 3, 3, 20, 9, 2})
	f.Add([]byte{0, 4, 8, 2, 4, 11, 4, 2, 7, 11, 4, 2, 8, 10, 2, 3, 4, 8, 0, 0, 3, 0, 10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		eng := NewEngine()
		type ref struct {
			at                       Time
			fired, canceled, settled bool
			deferred, held           bool // reserved by Defer (no handle); a key still holds it
		}
		var model []ref
		var timers []Timer
		var fired []int
		var keys [3]Key
		for i := range keys {
			eng.Register(&keys[i])
		}
		held := [3]int{-1, -1, -1}        // model entry each key holds
		live, firedN, settledN := 0, 0, 0 // queued, neither fired nor cancelled; fired; settled
		// Entry id is due when (at, id) precedes (dueAt, dueID).
		var dueAt Time
		dueID := 0
		due := func(id int) bool {
			r := &model[id]
			return r.at < dueAt || r.at == dueAt && id < dueID
		}
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}

		// fire is entry id's callback; then, if non-nil, runs inside it
		// after the model checks.
		fire := func(id int, then func()) func() {
			return func() {
				r := &model[id]
				if r.fired || r.canceled || r.settled || eng.Now() != r.at || due(id) {
					t.Fatalf("event %d (at %v) fired at %v with fired=%v canceled=%v settled=%v, due bound (%v, %d)",
						id, r.at, eng.Now(), r.fired, r.canceled, r.settled, dueAt, dueID)
				}
				r.fired = true
				live--
				firedN++
				fired = append(fired, id)
				dueAt, dueID = r.at, id
				if then != nil {
					then()
				}
			}
		}
		schedule := func(d Time, then func()) {
			id := len(model)
			at := eng.Now() + d
			model = append(model, ref{at: at})
			live++
			timers = append(timers, eng.At(at, fire(id, then)))
		}
		// cancel goes through handle i, which may be stale or already
		// cancelled; the model decides whether it should have any effect.
		// Deferred entries have no handle.
		cancel := func(i int) {
			r := &model[i]
			if r.deferred {
				return
			}
			pending := !r.fired && !r.canceled
			if timers[i].Active() != pending {
				t.Fatalf("handle %d: Active() = %v, model says %v", i, !pending, pending)
			}
			timers[i].Cancel()
			if pending {
				r.canceled = true
				live--
			}
			if timers[i].Active() {
				t.Fatalf("handle %d still active after Cancel", i)
			}
		}
		deferKey := func(k int, d Time) {
			if held[k] >= 0 {
				return
			}
			held[k] = len(model)
			model = append(model, ref{at: eng.Now() + d, deferred: true, held: true})
			timers = append(timers, Timer{})
			eng.Defer(&keys[k], eng.Now()+d)
		}
		// touch is link.Port's sync on key k: a due key settles, and a write
		// commits one not yet due.
		touch := func(k int, write bool) {
			id := held[k]
			if id < 0 {
				if keys[k].seq != 0 {
					t.Fatalf("key %d holds an entry the model freed", k)
				}
				return
			}
			if eng.Due(&keys[k]) != due(id) {
				t.Fatalf("key %d (entry %d at %v): Due() = %v, due bound (%v, %d)", k, id, model[id].at, !due(id), dueAt, dueID)
			}
			switch {
			case due(id):
				eng.Settle(&keys[k])
				model[id].settled = true
				settledN++
			case write:
				eng.Commit(&keys[k], fire(id, nil))
				live++
			default:
				return
			}
			model[id].held = false
			held[k] = -1
		}
		// counts checks Fired, Pending and PendingRaw against the model.
		counts := func(op byte) {
			wantFired, wantPending := firedN+settledN, live
			for k, id := range held {
				switch {
				case id < 0:
				case eng.Due(&keys[k]) != due(id):
					t.Fatalf("after op %d: key %d Due() = %v, model says %v", op, k, !due(id), due(id))
				case due(id):
					wantFired++
				default:
					wantPending++
				}
			}
			if eng.Fired() != uint64(wantFired) || eng.Pending() != wantPending {
				t.Fatalf("after op %d: Fired() = %d, Pending() = %d; model has %d fired, %d live",
					op, eng.Fired(), eng.Pending(), wantFired, wantPending)
			}
			if got := eng.PendingRaw() - eng.Pending(); got != eng.canceledN {
				t.Fatalf("after op %d: PendingRaw() − Pending() = %d with %d cancelled events queued", op, got, eng.canceledN)
			}
		}
		// check runs after every top-level op; drained says the op was a
		// drain, after which nothing queued at or before Now() may be left.
		check := func(op byte, drained bool) {
			counts(op)
			if eng.hole != 0 {
				t.Fatalf("after op %d: the root is left a hole", op)
			}
			if i := heapViolation(eng); i >= 0 {
				t.Fatalf("after op %d: heap invariant broken at slot %d of %d", op, i, eng.PendingRaw())
			}
			if !drained {
				return
			}
			for id, r := range model {
				if !r.fired && !r.canceled && !r.settled && !r.held && r.at <= eng.Now() {
					t.Fatalf("after op %d: event %d (at %v) left pending by a drain to %v", op, id, r.at, eng.Now())
				}
			}
		}

		for pos < len(data) {
			op := next() % 12
			switch op {
			case 0, 1: // At / After with a bounded delta — identical semantics here
				schedule(Time(next())*Microsecond, nil)
			case 2: // cancel an arbitrary handle, possibly stale or already cancelled
				if len(timers) > 0 {
					cancel(int(next()) % len(timers))
				}
			case 3, 7: // partial drain
				eng.RunUntil(eng.Now() + Time(next())*Microsecond)
				dueAt, dueID = eng.Now(), len(model)
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
			case 8: // defer a key, as a port defers the end of a serialization
				deferKey(int(next()%3), Time(next())*Microsecond)
			case 9: // a reader: settle a key if it is due
				touch(int(next()%3), false)
			case 10: // a writer: commit a key, or settle it if it is due
				touch(int(next()%3), true)
			case 11: // a callback reads (settling a due key), then defers or writes
				d, k, w := next(), int(next()%3), next()
				schedule(Time(d)*Microsecond, func() {
					touch(k, false)
					counts(op)
					if w%2 == 0 {
						deferKey(k, Time(w)*Microsecond)
					} else {
						touch(k, true)
					}
				})
			}
			check(op, op == 3 || op == 7)
		}
		wantNow := eng.Now()
		eng.Run()
		for _, r := range model {
			if !r.canceled {
				wantNow = max(wantNow, r.at)
			}
		}
		dueAt, dueID = eng.Now(), len(model)
		if eng.Now() != wantNow {
			t.Fatalf("Run() left the clock at %v, want the last event's or key's time %v", eng.Now(), wantNow)
		}
		check(255, true)

		var want []int
		for id, r := range model {
			if !r.canceled && !r.settled && !r.held {
				want = append(want, id)
			}
		}
		// Engine order is (at, seq); seq is model order, so a stable sort of
		// the surviving entries by time is the oracle.
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
	})
}
