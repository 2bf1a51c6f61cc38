package sim

import (
	"fmt"
	"math/bits"
)

// event is a scheduled callback owned by an Engine. Events are pooled: once
// an event fires, is compacted away, or is popped after cancellation, its
// struct is recycled for a future At/After call. User code therefore never
// holds an *event; it holds a Timer handle whose generation check makes
// stale handles inert (see the "Performance model" section of DESIGN.md).
type event struct {
	gen      uint32 // bumped on recycle; stale Timer handles no-op
	canceled bool
	fn       func()
	eng      *Engine
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// inert: Cancel is a no-op and Active reports false. Timers are
// small values and stay safe after the underlying event fires and its struct
// is recycled — the generation check rejects stale handles, so cancelling a
// long-gone timer can never disturb an unrelated event that reuses the same
// storage.
type Timer struct {
	ev  *event
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired,
// already-cancelled or zero Timer is a no-op. Cancel is O(1) amortized: the
// event stays in the heap and is discarded when popped, unless cancelled
// events come to dominate the heap, in which case they are compacted out in
// one O(n) pass (so cancel-heavy pacing workloads keep the heap proportional
// to the number of live timers).
func (t *Timer) Cancel() {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.canceled {
		return
	}
	ev.canceled = true
	ev.fn = nil // release captured state early
	e := ev.eng
	e.live--
	e.canceledN++
	e.cancels++
	if e.canceledN >= compactMin && e.canceledN*2 > len(e.heap)-e.hole {
		e.compact()
	}
}

// Active reports whether the event is still scheduled and uncancelled.
func (t *Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.canceled
}

// compactMin is the minimum number of cancelled events before a compaction
// pass is considered; below it the lazy pop-time discard is cheaper.
const compactMin = 64

// Key is a deferred event: the (at, seq) key At would have queued, reserved
// by Defer with nothing queued. Before the state its callback touches is
// read, the owner settles a due key and applies the effect itself; before
// that state changes, it commits a key not yet due, queueing the callback
// under it. The zero Key holds nothing.
//
// A registered key (Register) counts as the event it stands for in Fired,
// Pending and Run while it is reserved. An unregistered key is counted by
// neither Pending nor Fired until it is committed, and the engine never reads
// it, so it may be copied or moved while reserved; its owner must Commit it
// before it is due, and then it fires exactly where an At made at
// reservation time would have.
type Key struct {
	at  Time
	seq uint64 // reserved seq + 1; zero while nothing is deferred
}

// slot is one scheduler-queue entry. The ordering key (at, seq) lives in the
// slot by value, so a sift level compares and moves slots within one slice
// and never dereferences the pooled Event structs scattered across memory.
type slot struct {
	at  uint64 // fire time; a Time in [0, maxTime], so unsigned order is time order
	seq uint64 // schedule order: breaks ties among equal-time events, unique per engine
	ev  *event
}

// before reports, as 1 or 0, whether a fires before b: the borrow out of the
// 128-bit subtraction (a.at:a.seq) - (b.at:b.seq). Two subtract-with-borrow
// instructions and no branch, so siftDown can fold it into a child index.
func before(a, b *slot) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return int(borrow)
}

// siftUp places s at or above the hole h[i] of the binary min-heap h.
func siftUp(h []slot, i int, s slot) {
	for i > 0 {
		p := (i - 1) / 2
		if before(&s, &h[p]) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = s
}

// siftDown places s at or below the hole h[i]. The smaller child is picked
// arithmetically, so the only data-dependent branch per level is the exit.
func siftDown(h []slot, i int, s slot) {
	for c := 2*i + 2; c < len(h); c = 2*i + 2 { // c is the right child
		c -= before(&h[c-1], &h[c])
		if before(&h[c], &s) == 0 {
			h[i] = s
			return
		}
		h[i] = h[c]
		i = c
	}
	if c := 2*i + 1; c < len(h) && before(&h[c], &s) != 0 { // lone left child
		h[i] = h[c]
		i = c
	}
	h[i] = s
}

// maxTime is the last schedulable time and the deadline Run passes to
// RunUntil. Every queued event satisfies 0 <= at <= maxTime (At enforces
// it), the precondition for comparing slot keys as unsigned integers.
const maxTime = Time(1)<<62 - 1

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use: all scheduling must happen from the engine goroutine
// (i.e. from within event callbacks or before Run).
type Engine struct {
	now Time
	// A deferred key is due when it precedes (now, dueSeq): the firing
	// event's key, or once a run returns, every seq reserved so far.
	dueSeq  uint64
	heap    []slot // binary min-heap on (at, seq)
	hole    int    // 1 while heap[0] is the firing event's vacated slot (RunUntil)
	stopped bool
	seq     uint64
	fired   uint64 // heap events executed
	settled uint64 // deferred keys settled: events that ran without a heap entry

	// Event-loop shape, for runtime diagnostics: timers cancelled, and
	// executed heap events whose time equaled the clock already (their
	// instant's second and later events). Neither feeds back into the run.
	cancels     uint64
	sameInstant uint64

	live      int // scheduled and not cancelled
	canceledN int // cancelled but still in the heap

	free     []*event // recycled event structs
	allocs   uint64   // events allocated from the Go heap
	recycles uint64   // events served from the free list

	keys []*Key // registered deferred keys, each counted as the event it stands for

	_ [64]byte // two shards' engines allocated side by side share no cache line
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed, due deferred keys included,
// for diagnostics and tests.
func (e *Engine) Fired() uint64 {
	due, _ := e.keyCounts()
	return e.fired + e.settled + uint64(due)
}

// LoopStats reports the event loop's shape so far: heap events executed,
// how many of them fired at the instant the clock already showed, and
// timers cancelled. The same-instant count depends on how events are split
// among engines, so it is a diagnostic, not part of a run's outcome.
func (e *Engine) LoopStats() (popped, sameInstant, cancels uint64) {
	return e.fired, e.sameInstant, e.cancels
}

// Pending reports the number of live events: scheduled and not cancelled,
// or deferred and not yet due.
func (e *Engine) Pending() int {
	_, undue := e.keyCounts()
	return e.live + undue
}

// PendingRaw reports the scheduler heap size, including cancelled-but-
// unpopped events — the quantity that bounds heap memory and pop cost —
// plus the deferred keys not yet due.
func (e *Engine) PendingRaw() int {
	_, undue := e.keyCounts()
	return len(e.heap) - e.hole + undue
}

// keyCounts splits the outstanding deferred keys into due and not yet due.
func (e *Engine) keyCounts() (due, undue int) {
	for _, k := range e.keys {
		if e.Due(k) {
			due++
		} else if k.seq != 0 {
			undue++
		}
	}
	return due, undue
}

// EventAllocs reports how many Event structs were heap-allocated (vs served
// from the free list), for allocation tests and diagnostics.
func (e *Engine) EventAllocs() uint64 { return e.allocs }

// EventRecycles reports how many schedules reused a recycled Event struct.
func (e *Engine) EventRecycles() uint64 { return e.recycles }

// At schedules fn to run at absolute time t. An unschedulable request panics
// at the call site, because each is a bug in the caller: a time in the past
// violates causality, a time beyond maxTime could never fire (Run would
// return with the event still pending), and a nil fn would otherwise only
// fail when the event fires, far from whoever scheduled it.
func (e *Engine) At(t Time, fn func()) Timer {
	switch {
	case t < e.now:
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	case t > maxTime:
		panic(fmt.Sprintf("sim: schedule at %v, beyond the last schedulable time %v", t, maxTime))
	case fn == nil:
		panic(fmt.Sprintf("sim: schedule nil callback at %v", t))
	}
	e.seq++
	return e.push(t, e.seq-1, fn)
}

// push queues fn under the key (t, seq). The first push of a callback
// refills the hole its firing event left at the root with one siftDown,
// where a pop and a push would sift twice.
func (e *Engine) push(t Time, seq uint64, fn func()) Timer {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.recycles++
	} else {
		ev = &event{eng: e}
		e.allocs++
	}
	ev.fn = fn
	s := slot{at: uint64(t), seq: seq, ev: ev}
	if e.hole != 0 {
		e.hole = 0
		siftDown(e.heap, 0, s)
	} else {
		e.heap = append(e.heap, s)
		siftUp(e.heap, len(e.heap)-1, s)
	}
	e.live++
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: schedule after negative delay %v", d))
	}
	if d > maxTime-e.now { // also catches now+d overflowing int64
		panic(fmt.Sprintf("sim: schedule %v after now %v, beyond the last schedulable time %v", d, e.now, maxTime))
	}
	return e.At(e.now+d, fn)
}

// Register makes k count as the event it stands for in Fired, Pending and
// Run. Register a key once, before its first Defer.
func (e *Engine) Register(k *Key) { e.keys = append(e.keys, k) }

// Defer reserves for the idle key k, registered or not, the key At(t, ...)
// would queue, and queues nothing.
func (e *Engine) Defer(k *Key, t Time) {
	if k.seq != 0 || t < e.now {
		panic(fmt.Sprintf("sim: defer at %v (now %v) onto a key holding %v", t, e.now, k.at))
	}
	e.seq++
	k.at, k.seq = t, e.seq
}

// Due reports whether k's event would have fired by now.
func (e *Engine) Due(k *Key) bool {
	return k.seq != 0 && (k.at < e.now || k.at == e.now && k.seq <= e.dueSeq)
}

// Settle counts k's due event as fired, frees k and returns the event's
// time, for the owner to apply its effect.
func (e *Engine) Settle(k *Key) Time {
	k.seq = 0
	e.settled++
	return k.at
}

// Commit queues fn under k's reserved key, which must not be due yet, and
// frees k. An idle key commits nothing.
func (e *Engine) Commit(k *Key, fn func()) {
	if k.seq != 0 {
		e.push(k.at, k.seq-1, fn)
		k.seq = 0
	}
}

// Stop makes Run/RunUntil return after the currently executing event. A Stop
// issued while no run is in progress is honored by the next Run/RunUntil,
// which returns immediately (consuming the stop) without executing events.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty or Stop is
// called.
func (e *Engine) Run() {
	e.RunUntil(maxTime)
}

// RunUntil executes events with timestamps <= deadline. Where Now() lands on
// return is part of the contract — callers that alternate RunUntil barriers
// (the shard scheduler in shard.go) depend on it:
//
//   - drained: the queue emptied at or before the deadline. Now() == deadline
//     for any finite deadline; a Run() (deadline = sentinel max) leaves the
//     clock at the last fired event, or at the last outstanding deferred
//     key, which would have fired after it.
//   - deadline: events remain beyond the deadline. Now() == deadline.
//   - stopped: Stop was called from a callback. Now() stays at that event's
//     timestamp — NOT the deadline — so a resumed RunUntil continues from the
//     stopping point without skipping the remaining window.
//   - pre-stopped: a Stop issued before the call is consumed and RunUntil
//     returns immediately with the clock (and queue) untouched.
//   - past deadline: a deadline at or before Now() executes nothing and
//     leaves the clock unchanged (events cannot be scheduled in the past, so
//     none can be due).
//
// A deferred key is due once a run has passed it: the firing event's key
// during a callback, the stopping event's after a Stop, the clock otherwise.
//
// Each Run/RunUntil return consumes at most one Stop, so a stopped run can
// be resumed by calling Run/RunUntil again. TestRunUntilClockContract pins
// every path above.
func (e *Engine) RunUntil(deadline Time) {
	for {
		if e.hole != 0 { // the last callback scheduled nothing: pop its slot
			e.hole = 0
			e.pop()
		}
		if e.stopped || len(e.heap) == 0 || Time(e.heap[0].at) > deadline {
			break
		}
		s := &e.heap[0]
		next := s.ev
		if next.canceled {
			e.pop()
			e.canceledN--
			e.recycle(next)
			continue
		}
		same := uint64(0) // compiles to a flag set, not a branch
		if Time(s.at) == e.now {
			same = 1
		}
		e.sameInstant += same
		e.now, e.dueSeq = Time(s.at), s.seq
		fn := next.fn
		e.live--
		// Recycle before calling fn: the callback may schedule new events,
		// which can then reuse this struct immediately. The generation bump
		// inside recycle makes any handle to the firing event stale first.
		e.recycle(next)
		e.fired++
		// The firing slot stays at the root as a hole for the callback's
		// first push to refill in place.
		e.hole = 1
		fn()
	}
	if e.stopped || e.now > deadline { // stopped, or past deadline
		e.stopped = false
		return
	}
	if deadline == maxTime { // the queue drained: outstanding keys come last
		for _, k := range e.keys {
			if k.seq != 0 {
				e.now = max(e.now, k.at)
			}
		}
	} else {
		e.now = deadline
	}
	e.dueSeq = e.seq
}

// pop removes the root: the last slot refills it. The vacated tail slot
// keeps a stale pointer, which pins nothing: Event structs are pooled for
// the engine's lifetime.
func (e *Engine) pop() {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		siftDown(e.heap, 0, last)
	}
}

// recycle returns an event struct to the free list. The generation bump
// invalidates every outstanding Timer handle to it.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	e.free = append(e.free, ev)
}

// compact removes cancelled events, and a pending hole, from the heap in one
// pass and restores the heap invariant bottom-up with the same siftDown the
// pop path uses. Firing order of survivors is unchanged because their
// (at, seq) keys are.
func (e *Engine) compact() {
	old := e.heap[e.hole:]
	e.hole = 0
	h := e.heap[:0]
	for _, s := range old {
		if s.ev.canceled {
			e.recycle(s.ev)
		} else {
			h = append(h, s)
		}
	}
	e.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, h[i])
	}
	e.canceledN = 0
}
