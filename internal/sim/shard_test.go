package sim

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunUntilClockContract pins where Now() lands on every RunUntil exit
// path; the shard scheduler's barrier invariant depends on each of these.
func TestRunUntilClockContract(t *testing.T) {
	t.Run("drained", func(t *testing.T) {
		e := NewEngine()
		e.At(5, func() {})
		e.RunUntil(10)
		if e.Now() != 10 {
			t.Fatalf("drained exit: Now() = %v, want deadline 10", e.Now())
		}
	})
	t.Run("drained-empty-queue", func(t *testing.T) {
		e := NewEngine()
		e.RunUntil(7)
		if e.Now() != 7 {
			t.Fatalf("empty-queue exit: Now() = %v, want deadline 7", e.Now())
		}
	})
	t.Run("deadline-with-pending", func(t *testing.T) {
		e := NewEngine()
		e.At(5, func() {})
		e.At(15, func() {})
		e.RunUntil(10)
		if e.Now() != 10 {
			t.Fatalf("deadline exit: Now() = %v, want deadline 10", e.Now())
		}
		if e.Pending() != 1 {
			t.Fatalf("deadline exit: %d pending events, want 1", e.Pending())
		}
	})
	t.Run("event-at-deadline", func(t *testing.T) {
		e := NewEngine()
		fired := false
		e.At(10, func() { fired = true })
		e.RunUntil(10)
		if !fired {
			t.Fatal("event at the deadline did not fire")
		}
		if e.Now() != 10 {
			t.Fatalf("Now() = %v, want 10", e.Now())
		}
	})
	t.Run("run-drains-to-last-event", func(t *testing.T) {
		e := NewEngine()
		e.At(5, func() {})
		e.At(9, func() {})
		e.Run()
		if e.Now() != 9 {
			t.Fatalf("Run() exit: Now() = %v, want last event time 9", e.Now())
		}
	})
	t.Run("run-drains-to-outstanding-key", func(t *testing.T) {
		e := NewEngine()
		var k Key
		e.Register(&k)
		e.At(5, func() { e.Defer(&k, 12) })
		e.At(9, func() {})
		e.Run()
		if e.Now() != 12 || !e.Due(&k) || e.Fired() != 3 || e.Pending() != 0 {
			t.Fatalf("Run() exit: Now() = %v, Due = %v, Fired = %d, Pending = %d; want 12, true, 3, 0",
				e.Now(), e.Due(&k), e.Fired(), e.Pending())
		}
	})
	t.Run("stopped-due-ness", func(t *testing.T) {
		// Three entries at 5: a stop (seq 0), the deferred key (seq 1), a
		// stop (seq 2). Each stopped run leaves the key due exactly when its
		// event would have fired before the stopping one.
		e := NewEngine()
		var k Key
		e.Register(&k)
		e.At(5, func() { e.Stop() })
		e.Defer(&k, 5)
		e.At(5, func() { e.Stop() })
		for i, want := range []bool{false, true} {
			e.RunUntil(10)
			if e.Now() != 5 || e.Due(&k) != want {
				t.Fatalf("stop %d: Now() = %v, Due = %v; want 5, %v", i, e.Now(), e.Due(&k), want)
			}
		}
	})
	t.Run("stopped", func(t *testing.T) {
		e := NewEngine()
		e.At(5, func() { e.Stop() })
		later := false
		e.At(8, func() { later = true })
		e.RunUntil(10)
		if e.Now() != 5 {
			t.Fatalf("stopped exit: Now() = %v, want stopping event time 5", e.Now())
		}
		if later {
			t.Fatal("event past the stop point fired")
		}
		// The stop is consumed: resuming finishes the window and pins the
		// deadline.
		e.RunUntil(10)
		if !later || e.Now() != 10 {
			t.Fatalf("resume: later=%v Now()=%v, want true/10", later, e.Now())
		}
	})
	t.Run("pre-stopped", func(t *testing.T) {
		e := NewEngine()
		e.At(5, func() {})
		e.Stop()
		e.RunUntil(10)
		if e.Now() != 0 {
			t.Fatalf("pre-stopped exit: Now() = %v, want untouched 0", e.Now())
		}
		if e.Pending() != 1 {
			t.Fatalf("pre-stopped exit consumed events: %d pending, want 1", e.Pending())
		}
	})
	t.Run("past-deadline", func(t *testing.T) {
		e := NewEngine()
		e.At(5, func() {})
		e.RunUntil(10)
		e.At(20, func() {})
		e.RunUntil(3)
		if e.Now() != 10 {
			t.Fatalf("past-deadline exit: Now() = %v, want unchanged 10", e.Now())
		}
		if e.Pending() != 1 {
			t.Fatalf("past-deadline exit fired events: %d pending, want 1", e.Pending())
		}
	})
}

// TestShardGroupBarriers checks the lockstep schedule: every engine reaches
// every barrier, the exchange runs at each one in order, and events fire in
// their own windows at their exact times.
func TestShardGroupBarriers(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	var barriers []Time
	g := NewShardGroup([]*Engine{a, b}, 10, func(bar Time) {
		if a.Now() != bar || b.Now() != bar {
			t.Fatalf("exchange at %v with engines at %v/%v", bar, a.Now(), b.Now())
		}
		barriers = append(barriers, bar)
	})

	var fired []Time
	a.At(3, func() { fired = append(fired, a.Now()) })
	b.At(17, func() { fired = append(fired, b.Now()) })
	a.At(25, func() { fired = append(fired, a.Now()) })

	g.RunUntil(25)
	if g.Now() != 25 {
		t.Fatalf("group Now() = %v, want 25", g.Now())
	}
	wantBarriers := []Time{10, 20, 25}
	if len(barriers) != len(wantBarriers) {
		t.Fatalf("barriers %v, want %v", barriers, wantBarriers)
	}
	for i, w := range wantBarriers {
		if barriers[i] != w {
			t.Fatalf("barriers %v, want %v", barriers, wantBarriers)
		}
	}
	// Single-shard windows cannot interleave across engines, so with one
	// event per window the firing order is by time.
	want := []Time{3, 17, 25}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i, w := range want {
		if fired[i] != w {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	var total uint64
	for _, e := range []*Engine{a, b} {
		total += e.Fired()
	}
	if total != 3 {
		t.Fatalf("engines fired %d events, want 3", total)
	}
}

// TestShardGroupExchangeInjects models the mailbox pattern: the exchange
// schedules a cross-shard event on the destination engine at its exact
// arrival time in the next window.
func TestShardGroupExchangeInjects(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	const lookahead = 10
	type msg struct{ at Time }
	var outbox []msg
	var deliveredAt Time
	g := NewShardGroup([]*Engine{a, b}, lookahead, func(bar Time) {
		for _, m := range outbox {
			m := m
			b.At(m.at, func() { deliveredAt = b.Now() })
		}
		outbox = nil
	})
	// Shard a "launches" at t=4 with propagation = lookahead: arrival 14,
	// strictly inside the next window.
	a.At(4, func() { outbox = append(outbox, msg{at: 4 + lookahead}) })
	g.RunUntil(30)
	if deliveredAt != 14 {
		t.Fatalf("cross-shard delivery at %v, want 14", deliveredAt)
	}
}

// TestShardGroupParallelWindows proves windows really run concurrently and
// race-free: both engines burn many events per window touching their own
// state, under -race, each timing its own share of every window.
func TestShardGroupParallelWindows(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	var na, nb atomic.Int64
	var tick func(e *Engine, n *atomic.Int64, step Time)
	tick = func(e *Engine, n *atomic.Int64, step Time) {
		n.Add(1)
		if e.Now() < 1000 {
			e.After(step, func() { tick(e, n, step) })
		}
	}
	a.At(0, func() { tick(a, &na, 1) })
	b.At(0, func() { tick(b, &nb, 3) })
	g := NewShardGroup([]*Engine{a, b}, 50, nil)
	g.RunUntil(1200)
	if na.Load() != 1001 || nb.Load() != 335 {
		t.Fatalf("ticks %d/%d, want 1001/335", na.Load(), nb.Load())
	}
	// Each shard's busy and barrier-wait time split the same windows.
	if g.Windows != 24 {
		t.Fatalf("%d windows, want 24", g.Windows)
	}
	for i := range g.Busy {
		if g.Busy[i] <= 0 || g.Wait[i] < 0 || g.Busy[i]+g.Wait[i] != g.Busy[0]+g.Wait[0] {
			t.Fatalf("shard %d: busy %v wait %v; shard 0: busy %v wait %v", i, g.Busy[i], g.Wait[i], g.Busy[0], g.Wait[0])
		}
	}
}

// TestShardGroupStopPanics pins the contract that Stop inside a sharded run
// is a programming error, not silent desynchronization.
func TestShardGroupStopPanics(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	a.At(5, func() { a.Stop() })
	g := NewShardGroup([]*Engine{a, b}, 10, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sharded run with a Stop did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "short of the") {
			t.Fatalf("panic %v, want barrier-desync message", r)
		}
	}()
	g.RunUntil(20)
}

// TestShardGroupPanicContext checks a panic inside a shard window is
// re-raised on the caller with the shard index attached.
func TestShardGroupPanicContext(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	b.At(5, func() { panic("boom") })
	g := NewShardGroup([]*Engine{a, b}, 10, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("shard panic was swallowed")
		}
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "shard 1 panicked") || !strings.Contains(s, "boom") {
			t.Fatalf("panic %q, want shard index and cause", r)
		}
	}()
	g.RunUntil(20)
}
