package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// ShardGroup runs several engines in conservative lockstep: every engine
// advances independently to a shared barrier, then a caller-supplied exchange
// step runs with all engines quiescent, then the next window begins. The
// barrier spacing (the lookahead) must not exceed the minimum cross-shard
// propagation delay, so that no event executed inside a window can require a
// delivery into another shard's past: a frame launched in window k arrives
// strictly after barrier k, i.e. in window k+1 or later, and the exchange at
// barrier k can schedule it at its exact arrival time.
//
// Windows execute in parallel (one goroutine per engine beyond the first,
// which runs on the caller's goroutine), but each engine is only ever touched
// by one goroutine at a time and the exchange step runs single-threaded
// between windows, so the per-engine single-goroutine contract of Engine
// holds throughout. Determinism is preserved because the exchange runs in a
// fixed shard→shard order at every barrier and the engines themselves are
// deterministic.
//
// Stop is not supported inside a sharded run: an engine that returns from its
// window before the barrier would desynchronize the group, so RunUntil
// panics if any engine's clock is short of the barrier after a window.
type ShardGroup struct {
	engines   []*Engine
	lookahead Time
	exchange  func(barrier Time)
	now       Time
	start     time.Time // wall clock at the current window's start

	// Wall-clock statistics, timed once per window, read with the group
	// quiescent: windows run and, per shard, time spent running windows
	// (Busy) and waiting at barriers for the slowest shard (Wait).
	Windows    int64
	Busy, Wait []time.Duration
}

// NewShardGroup builds a group over the given engines (all with clocks at
// zero) with the given lookahead between barriers. exchange, if non-nil, is
// called at every barrier — including the final one at the RunUntil deadline
// — with all engines quiescent and their clocks equal to the barrier time.
func NewShardGroup(engines []*Engine, lookahead Time, exchange func(barrier Time)) *ShardGroup {
	if len(engines) == 0 {
		panic("sim: shard group needs at least one engine")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: shard group lookahead %v must be positive", lookahead))
	}
	for i, e := range engines {
		if e == nil {
			panic(fmt.Sprintf("sim: shard group engine %d is nil", i))
		}
	}
	times := make([]time.Duration, 2*len(engines))
	return &ShardGroup{engines: engines, lookahead: lookahead, exchange: exchange,
		Busy: times[:len(engines):len(engines)], Wait: times[len(engines):]}
}

// Now returns the group clock: the last barrier reached.
func (g *ShardGroup) Now() Time { return g.now }

// RunUntil advances every engine to deadline in lookahead-bounded windows,
// running the exchange step at each barrier. On return every engine's clock
// is exactly deadline (RunUntil pins finite-deadline exits to the deadline;
// see Engine.RunUntil). Deadlines at or before the group clock are no-ops.
func (g *ShardGroup) RunUntil(deadline Time) {
	for g.now < deadline {
		next := g.now + g.lookahead
		if next > deadline {
			next = deadline
		}
		g.runWindow(next)
		g.now = next
		if g.exchange != nil {
			g.exchange(next)
		}
	}
}

// runWindow advances every engine to the barrier in parallel and re-raises
// the first panic (with its shard index and stack) on the caller's goroutine
// after all shards have settled, so a violation inside a shard does not die
// with a bare goroutine stack. Each shard times its own window; the rest of
// the window's wall time it spent at the barrier.
func (g *ShardGroup) runWindow(barrier Time) {
	g.start = time.Now()
	if len(g.engines) > 1 {
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			failed  bool
			shard   int
			reason  any
			stack   []byte
			capture = func(i int, e *Engine) {
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						if !failed {
							failed, shard, reason, stack = true, i, r, debug.Stack()
						}
						mu.Unlock()
					}
				}()
				g.runShard(i, e, barrier)
			}
		)
		for i, e := range g.engines[1:] {
			wg.Add(1)
			go func(i int, e *Engine) {
				defer wg.Done()
				capture(i, e)
			}(i+1, e)
		}
		capture(0, g.engines[0])
		wg.Wait()
		if failed {
			panic(fmt.Sprintf("sim: shard %d panicked in window ending %v: %v\n%s", shard, barrier, reason, stack))
		}
	} else {
		g.runShard(0, g.engines[0], barrier)
	}
	window := time.Since(g.start)
	for i := range g.Wait {
		g.Wait[i] += window
	}
	g.Windows++
	for i, e := range g.engines {
		if e.Now() != barrier {
			panic(fmt.Sprintf("sim: shard %d stopped at %v short of the %v barrier (Stop is unsupported in sharded runs)", i, e.Now(), barrier))
		}
	}
}

// runShard advances shard i's engine e to the barrier and books the wall time
// since the window began as busy; runWindow adds the whole window to Wait,
// so what remains there is the time the shard sat at the barrier.
func (g *ShardGroup) runShard(i int, e *Engine, barrier Time) {
	e.RunUntil(barrier)
	d := time.Since(g.start)
	g.Busy[i] += d
	g.Wait[i] -= d
}
