package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e12 {
		t.Fatalf("Second = %d, want 1e12", int64(Second))
	}
	if Millisecond*1000 != Second || Microsecond*1000 != Millisecond || Nanosecond*1000 != Microsecond {
		t.Fatal("unit ladder broken")
	}
	if got := (3 * Millisecond).Seconds(); got != 0.003 {
		t.Fatalf("Seconds() = %v, want 0.003", got)
	}
	if got := (250 * Microsecond).Millis(); got != 0.25 {
		t.Fatalf("Millis() = %v, want 0.25", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{Second, "1s"},
		{3 * Millisecond, "3.000ms"},
		{5 * Microsecond, "5.000us"},
		{80 * Nanosecond, "80.000ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(0.003); got != 3*Millisecond {
		t.Fatalf("FromSeconds(0.003) = %v", got)
	}
	if got := FromSeconds(-1e-6); got != -Microsecond {
		t.Fatalf("FromSeconds(-1e-6) = %v", got)
	}
}

func TestTxTimeExact(t *testing.T) {
	// 1000 B at 100 Gbps is exactly 80 ns.
	if got := TxTime(1000, 100*Gbps); got != 80*Nanosecond {
		t.Fatalf("TxTime(1000, 100G) = %v, want 80ns", got)
	}
	// 1000 B at 25 Gbps is exactly 320 ns.
	if got := TxTime(1000, 25*Gbps); got != 320*Nanosecond {
		t.Fatalf("TxTime(1000, 25G) = %v, want 320ns", got)
	}
	// 64 B at 100 Gbps is 5.12 ns.
	if got := TxTime(64, 100*Gbps); got != Time(5120) {
		t.Fatalf("TxTime(64, 100G) = %v ps, want 5120 ps", int64(got))
	}
}

func TestTxTimePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TxTime(100, 0)
}

func TestRateHelpers(t *testing.T) {
	if got := BDPBytes(100*Gbps, 6*Millisecond); got != 75_000_000 {
		t.Fatalf("BDP(100G, 6ms) = %d, want 75e6", got)
	}
	if got := bytesOver(8*Gbps, Millisecond); got != 1_000_000 {
		t.Fatalf("bytesOver = %d, want 1e6", got)
	}
	if got := ClampRate(5*Gbps, 10*Gbps, 20*Gbps); got != 10*Gbps {
		t.Fatalf("ClampRate low = %v", got)
	}
	if got := ClampRate(50*Gbps, 10*Gbps, 20*Gbps); got != 20*Gbps {
		t.Fatalf("ClampRate high = %v", got)
	}
	if got := ClampRate(15*Gbps, 10*Gbps, 20*Gbps); got != 15*Gbps {
		t.Fatalf("ClampRate mid = %v", got)
	}
}

func TestRateString(t *testing.T) {
	if got := (25 * Gbps).String(); got != "25Gbps" {
		t.Fatalf("got %q", got)
	}
	if got := (5 * Mbps).String(); got != "5Mbps" {
		t.Fatalf("got %q", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Microsecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of schedule order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits int
	e.At(Microsecond, func() {
		hits++
		e.After(Microsecond, func() {
			hits++
			e.After(Microsecond, func() { hits++ })
		})
	})
	e.Run()
	if hits != 3 {
		t.Fatalf("hits = %d, want 3", hits)
	}
	if e.Now() != 3*Microsecond {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(Microsecond, func() { fired = true })
	ev.Cancel()
	if ev.Active() {
		t.Fatal("cancelled timer still active")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancelling again (and cancelling a zero Timer) must be safe.
	ev.Cancel()
	var zero Timer
	zero.Cancel()
	if zero.Active() {
		t.Fatal("zero Timer must be inert")
	}
}

// A Timer handle must go inert once its event fires: cancelling it afterwards
// may not disturb an unrelated event that recycled the same Event struct.
func TestEngineStaleTimerIsInert(t *testing.T) {
	e := NewEngine()
	var fired int
	ev := e.At(Microsecond, func() { fired++ })
	e.Run()
	if ev.Active() {
		t.Fatal("fired timer still active")
	}
	// Schedule a new event; with a recycled struct this would be corrupted
	// by a stale Cancel if generations were not checked.
	e.At(2*Microsecond, func() { fired++ })
	ev.Cancel()
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (stale Cancel must not kill the new event)", fired)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{Microsecond, 2 * Microsecond, 3 * Microsecond} {
		d := d
		e.At(d, func() { got = append(got, d) })
	}
	e.RunUntil(2 * Microsecond)
	if len(got) != 2 {
		t.Fatalf("got %d events, want 2", len(got))
	}
	if e.Now() != 2*Microsecond {
		t.Fatalf("Now = %v, want 2us", e.Now())
	}
	e.RunUntil(10 * Microsecond)
	if len(got) != 3 {
		t.Fatalf("got %d events, want 3", len(got))
	}
	// Clock advances to the deadline even after the queue drains.
	if e.Now() != 10*Microsecond {
		t.Fatalf("Now = %v, want 10us", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(Microsecond, func() { count++; e.Stop() })
	e.At(2*Microsecond, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	// Resuming picks up the remaining event.
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

// Every schedule request that could never fire, or could only fail later,
// must panic at the call site with a message naming the offence, and leave
// the engine untouched.
func TestEngineRejectsUnschedulable(t *testing.T) {
	nop := func() {}
	cases := []struct {
		name string
		now  Time // clock position before the request
		call func(e *Engine)
		want string // substring of the panic message
	}{
		{"At beyond maxTime", 0, func(e *Engine) { e.At(maxTime+1, nop) }, "beyond the last schedulable time"},
		{"At MaxInt64", 0, func(e *Engine) { e.At(math.MaxInt64, nop) }, "beyond the last schedulable time"},
		{"At nil fn", 0, func(e *Engine) { e.At(Microsecond, nil) }, "nil callback"},
		{"After nil fn", 0, func(e *Engine) { e.After(Microsecond, nil) }, "nil callback"},
		{"After overflows int64", Microsecond, func(e *Engine) { e.After(math.MaxInt64, nop) }, "beyond the last schedulable time"},
		{"After passes maxTime", Microsecond, func(e *Engine) { e.After(maxTime, nop) }, "beyond the last schedulable time"},
		{"At in the past", Microsecond, func(e *Engine) { e.At(0, nop) }, "before now"},
		{"After negative", 0, func(e *Engine) { e.After(-1, nop) }, "negative delay"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			e.RunUntil(c.now)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("panic %q, want one containing %q", msg, c.want)
				}
				if e.Pending() != 0 || e.PendingRaw() != 0 || e.EventAllocs() != 0 {
					t.Errorf("rejected request left state behind: Pending=%d PendingRaw=%d EventAllocs=%d",
						e.Pending(), e.PendingRaw(), e.EventAllocs())
				}
			}()
			c.call(e)
		})
	}

	// The boundary itself is schedulable and fires under Run.
	e := NewEngine()
	fired := false
	e.At(maxTime, func() { fired = true })
	e.After(maxTime, nop)
	e.Run()
	if !fired || e.Pending() != 0 || e.Now() != maxTime {
		t.Fatalf("event at maxTime: fired=%v Pending=%d Now=%d", fired, e.Pending(), int64(e.Now()))
	}
}

// The branch-free key compare must agree with the plain two-field compare,
// including at the edges of both fields where a borrow chain could go wrong.
func TestEventKeyOrder(t *testing.T) {
	ats := []uint64{0, 1, uint64(maxTime) - 1, uint64(maxTime)}
	seqs := []uint64{0, 1, 1 << 63, 1<<64 - 1}
	var keys []slot
	for _, at := range ats {
		for _, seq := range seqs {
			keys = append(keys, slot{at: at, seq: seq})
		}
	}
	for _, a := range keys { // every pair: equal at, equal seq, equal everything
		for _, b := range keys {
			want := 0
			if a.at < b.at || (a.at == b.at && a.seq < b.seq) {
				want = 1
			}
			if got := before(&a, &b); got != want {
				t.Errorf("before({%d,%d}, {%d,%d}) = %d, want %d", a.at, a.seq, b.at, b.seq, got, want)
			}
		}
	}
}

// heapViolation returns the index of the first queue slot that fires before
// its parent, or -1 if the heap invariant holds over the whole live slice.
func heapViolation(e *Engine) int {
	for i := 1; i < len(e.heap); i++ {
		if before(&e.heap[i], &e.heap[(i-1)/2]) != 0 {
			return i
		}
	}
	return -1
}

// Exact (at, seq) order on a deep queue with heavy ties: 4096 events on 8
// distinct timestamps inserted in shuffled time order, with cancels
// interleaved so that the compaction threshold is crossed (at least) twice.
// TestEngineHeapProperty only checks that time never goes backwards.
func TestEngineTieBreakDeep(t *testing.T) {
	const n, stamps = 4096, 8
	rng := rand.New(rand.NewSource(12))
	e := NewEngine()
	type rec struct {
		at       Time
		tm       Timer
		canceled bool
	}
	recs := make([]rec, 0, n)
	var fired []int
	compactions := 0
	cancel := func(i int) {
		if recs[i].canceled {
			return
		}
		raw := e.PendingRaw()
		recs[i].tm.Cancel()
		recs[i].canceled = true
		if e.PendingRaw() < raw {
			compactions++
		}
		if at := heapViolation(e); at >= 0 {
			t.Fatalf("heap invariant broken at slot %d after cancelling event %d", at, i)
		}
	}
	for len(recs) < n {
		id := len(recs)
		at := Time(1+rng.Intn(stamps)) * Microsecond
		recs = append(recs, rec{at: at, tm: e.At(at, func() { fired = append(fired, id) })})
		if rng.Intn(4) == 0 {
			cancel(rng.Intn(len(recs)))
		}
		// Twice, cancel a burst big enough that tombstones outnumber live
		// entries, which is what triggers a compaction pass.
		if len(recs) == n/2 || len(recs) == n {
			for want := compactions + 1; compactions < want; {
				cancel(rng.Intn(len(recs)))
			}
		}
	}
	if compactions < 2 {
		t.Fatalf("only %d compaction passes; the test must cross the threshold twice", compactions)
	}
	e.Run()

	var want []int
	for id, r := range recs {
		if !r.canceled {
			want = append(want, id)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return recs[want[i]].at < recs[want[j]].at })
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("position %d: fired event %d (at %v), want %d (at %v)",
				i, fired[i], recs[fired[i]].at, want[i], recs[want[i]].at)
		}
	}
}

// Property: events always fire in nondecreasing timestamp order, regardless
// of insertion order.
func TestEngineHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			at := Time(d) * Nanosecond
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving cancels preserves ordering of survivors and never
// fires a cancelled event.
func TestEngineCancelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		type rec struct {
			ev       Timer
			at       Time
			canceled bool
		}
		n := 1 + rng.Intn(100)
		recs := make([]*rec, n)
		var fired []Time
		for i := range recs {
			r := &rec{at: Time(rng.Intn(1000)) * Nanosecond}
			r.ev = e.At(r.at, func() { fired = append(fired, r.at) })
			recs[i] = r
		}
		want := 0
		for _, r := range recs {
			if rng.Intn(2) == 0 {
				r.ev.Cancel()
				r.canceled = true
			} else {
				want++
			}
		}
		e.Run()
		if len(fired) != want {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(fired), want)
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			t.Fatalf("trial %d: out of order: %v", trial, fired)
		}
	}
}

func TestEngineStopBeforeRunIsHonored(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(Microsecond, func() { count++ })
	// A Stop issued before the run starts (e.g. setup code aborting) must
	// make the next run return immediately instead of being swallowed.
	e.Stop()
	e.RunUntil(10 * Microsecond)
	if count != 0 {
		t.Fatalf("count = %d, want 0: pre-set Stop was swallowed", count)
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %v, want 0 (stopped run must not advance the clock)", e.Now())
	}
	// The stop is consumed: the next run executes normally.
	e.RunUntil(10 * Microsecond)
	if count != 1 {
		t.Fatalf("count = %d, want 1 after resuming", count)
	}
	if e.Now() != 10*Microsecond {
		t.Fatalf("Now = %v, want 10us", e.Now())
	}
}

func TestEnginePendingExcludesCancelled(t *testing.T) {
	e := NewEngine()
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = e.At(Microsecond, func() {})
	}
	if e.Pending() != 10 || e.PendingRaw() != 10 {
		t.Fatalf("Pending = %d, PendingRaw = %d, want 10, 10", e.Pending(), e.PendingRaw())
	}
	for i := 0; i < 4; i++ {
		timers[i].Cancel()
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6 (cancelled events must not count)", e.Pending())
	}
	if e.PendingRaw() != 10 {
		t.Fatalf("PendingRaw = %d, want 10 (heap still holds cancelled events)", e.PendingRaw())
	}
	e.Run()
	if e.Pending() != 0 || e.PendingRaw() != 0 {
		t.Fatalf("after Run: Pending = %d, PendingRaw = %d, want 0, 0", e.Pending(), e.PendingRaw())
	}
}

// Cancel-heavy pacing workloads (one cancel+reschedule per packet) must not
// grow the heap with cancelled corpses, and the engine must serve the churn
// from its free list rather than the Go heap.
func TestEngineCancelHeavyHeapBounded(t *testing.T) {
	e := NewEngine()
	const n = 1_000_000
	var live Timer
	peakRaw := 0
	for i := 0; i < n; i++ {
		live.Cancel()
		live = e.After(Time(i%100+1)*Nanosecond, func() {})
		if raw := e.PendingRaw(); raw > peakRaw {
			peakRaw = raw
		}
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	// Compaction keeps the heap proportional to live timers (1 here), far
	// below the 1e6 cancelled events pushed through it.
	if peakRaw > 4*compactMin {
		t.Fatalf("peak heap size %d: compaction failed to bound cancelled events", peakRaw)
	}
	if e.EventAllocs() > uint64(4*compactMin) {
		t.Fatalf("%d event allocations for %d schedules: free list not reused", e.EventAllocs(), n)
	}
	if e.EventRecycles() < n/2 {
		t.Fatalf("only %d recycles for %d schedules", e.EventRecycles(), n)
	}
	e.Run()
}

// Two identical cancel-heavy runs must produce bit-identical engine state:
// compaction and recycling may not perturb firing order.
func TestEngineCancelHeavyDeterminism(t *testing.T) {
	run := func() (uint64, Time, uint64) {
		e := NewEngine()
		var digest uint64 = 14695981039346656037
		mix := func(v uint64) {
			const prime = 1099511628211
			for i := 0; i < 8; i++ {
				digest = (digest ^ (v & 0xff)) * prime
				v >>= 8
			}
		}
		rng := rand.New(rand.NewSource(42))
		var pacers [8]Timer
		for i := 0; i < 200_000; i++ {
			i := i
			slot := rng.Intn(len(pacers))
			pacers[slot].Cancel()
			pacers[slot] = e.After(Time(rng.Intn(500)+1)*Nanosecond, func() {
				mix(uint64(i))
				mix(uint64(e.Now()))
			})
			if i%17 == 0 {
				e.RunUntil(e.Now() + 100*Nanosecond)
			}
		}
		e.Run()
		return e.Fired(), e.Now(), digest
	}
	f1, n1, d1 := run()
	f2, n2, d2 := run()
	if f1 != f2 || n1 != n2 || d1 != d2 {
		t.Fatalf("nondeterministic: run1=(%d,%v,%#x) run2=(%d,%v,%#x)", f1, n1, d1, f2, n2, d2)
	}
}

// TestLoopStats pins the event-loop counters on a hand-built schedule: two
// events at one instant and a callback scheduling a zero-delay follow-up
// make two same-instant pops among four; one cancel counts once, however
// often it is repeated, and neither a fired timer's cancel nor a settled
// deferred key counts as a pop.
func TestLoopStats(t *testing.T) {
	e := NewEngine()
	var k Key
	e.Register(&k)
	nop := func() {}
	a := e.At(1, nop)
	e.At(1, nop)
	e.At(2, func() { e.After(0, nop) })
	c := e.At(3, nop)
	c.Cancel()
	c.Cancel()
	e.Defer(&k, 4)
	e.Run()
	a.Cancel()
	e.Settle(&k)
	popped, same, cancels := e.LoopStats()
	if popped != 4 || same != 2 || cancels != 1 {
		t.Fatalf("LoopStats = %d popped, %d same-instant, %d cancels; want 4, 2, 1", popped, same, cancels)
	}
	if e.Fired() != 5 {
		t.Fatalf("Fired = %d, want the 4 pops and the settled key", e.Fired())
	}
}

// TestUnregisteredKeyFiresWhereAtWould pins the unregistered-key contract:
// a key deferred now and committed later, from a callback that fires before
// it is due, runs exactly where an At made at reservation time would have —
// after the At queued before it at the same instant, before the one queued
// after — and counts in neither Pending nor Fired until it is committed.
func TestUnregisteredKeyFiresWhereAtWould(t *testing.T) {
	e := NewEngine()
	var order []string
	mark := func(s string) func() { return func() { order = append(order, s) } }
	var k Key
	e.At(5, mark("before"))
	e.Defer(&k, 5)
	e.At(5, mark("after"))
	e.At(1, func() { e.Commit(&k, mark("deferred")) })
	e.At(5, mark("last"))
	if e.Pending() != 4 || e.PendingRaw() != 4 {
		t.Fatalf("reserved key: Pending %d, PendingRaw %d; want 4, 4", e.Pending(), e.PendingRaw())
	}
	e.RunUntil(1)
	if e.Pending() != 4 || e.Fired() != 1 {
		t.Fatalf("committed key: Pending %d, Fired %d; want 4, 1", e.Pending(), e.Fired())
	}
	e.Run()
	want := []string{"before", "deferred", "after", "last"}
	if !slices.Equal(order, want) || e.Fired() != 5 {
		t.Fatalf("fired %v (%d events), want %v (5)", order, e.Fired(), want)
	}
}
