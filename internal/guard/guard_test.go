package guard

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mlcc/internal/link"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// nullEndpoint swallows deliveries — the guard tests traffic only PFC frames,
// which the port layer consumes before the owner ever sees them.
type nullEndpoint struct{}

func (nullEndpoint) Receive(p *pkt.Packet, on *link.Port) {}

// pauseRing builds the classic three-switch PFC deadlock out of real ports:
// devices A, B, C where A's monitored transmit port is held paused by B, B's
// by C, and C's by A. Each edge is a genuine link pair — the "held paused"
// state is installed by SendPause frames delivered through the wire, exactly
// the path a congested switch uses. Returns the engine (pause frames already
// delivered), the wait-for nodes in deterministic order, and the reverse
// ports used to pause/resume each monitored edge.
func pauseRing(t *testing.T) (*sim.Engine, []*Node, []*link.Port) {
	t.Helper()
	eng := sim.NewEngine()
	pool := pkt.NewPool()
	names := []string{"leafA", "leafB", "leafC"}
	nodes := make([]*Node, 3)
	for i, name := range names {
		nodes[i] = &Node{ID: int32(100 + i), Name: name}
	}
	mon := make([]*link.Port, 3)
	rev := make([]*link.Port, 3)
	for i := range nodes {
		// Edge i: nodes[i] owns the monitored transmit port; its peer is
		// owned by nodes[(i+1)%3], the device that will hold it paused.
		a := link.NewPort(eng, nullEndpoint{}, 0, 25*sim.Gbps, sim.Microsecond, pool)
		b := link.NewPort(eng, nullEndpoint{}, 1, 25*sim.Gbps, sim.Microsecond, pool)
		link.Connect(a, b)
		nodes[i].Ports = append(nodes[i].Ports, a)
		nodes[(i+1)%3].Ports = append(nodes[(i+1)%3].Ports, b)
		mon[i] = a
		rev[i] = b
	}
	for _, b := range rev {
		b.SendPause(pkt.ClassData, true)
	}
	eng.Run()
	for i, p := range mon {
		if !p.Paused(pkt.ClassData) {
			t.Fatalf("edge %d: monitored port not paused after SendPause delivery", i)
		}
	}
	return eng, nodes, rev
}

// TestDeadlockCycleDetected drives the detector over a constructed PFC pause
// cycle: the colored DFS must find it, count exactly one rising edge, name
// every member in the dump, and re-arm only after the cycle breaks.
func TestDeadlockCycleDetected(t *testing.T) {
	eng, nodes, rev := pauseRing(t)
	var out bytes.Buffer
	g := New(Config{Every: 10 * sim.Microsecond}, sim.Millisecond, 0, nodes, nil, nil, nil)
	g.SetOutput(&out)

	g.Tick(eng.Now())
	if g.Deadlocks != 1 {
		t.Fatalf("Deadlocks = %d after ticking over a pause cycle, want 1", g.Deadlocks)
	}
	dump := out.String()
	if !strings.Contains(dump, "PFC pause cycle") {
		t.Errorf("dump does not announce the cycle:\n%s", dump)
	}
	for _, nd := range nodes {
		if !strings.Contains(dump, nd.Name) {
			t.Errorf("dump omits cycle member %s:\n%s", nd.Name, dump)
		}
	}

	// Latched: a persisting cycle is one deadlock, not one per tick.
	g.Tick(eng.Now() + 10*sim.Microsecond)
	if g.Deadlocks != 1 {
		t.Errorf("Deadlocks = %d after second tick over the same cycle, want 1 (latch broken)", g.Deadlocks)
	}

	// Break one edge: the cycle clears and the latch re-arms.
	rev[0].SendPause(pkt.ClassData, false)
	eng.Run()
	g.Tick(eng.Now())
	if g.Deadlocks != 1 {
		t.Errorf("Deadlocks = %d after the cycle broke, want 1", g.Deadlocks)
	}
	rev[0].SendPause(pkt.ClassData, true)
	eng.Run()
	g.Tick(eng.Now())
	if g.Deadlocks != 2 {
		t.Errorf("Deadlocks = %d after the cycle re-formed, want 2 (latch did not re-arm)", g.Deadlocks)
	}
}

// TestDeadlockIgnoresAcyclicWaits pins the detector's specificity: a paused
// chain with no back edge (A waits on B waits on C) is congestion, not
// deadlock, no matter how long it persists.
func TestDeadlockIgnoresAcyclicWaits(t *testing.T) {
	eng, nodes, rev := pauseRing(t)
	// Release C's monitored port (edge 2, held by A): A→B→C remains, C→A gone.
	rev[2].SendPause(pkt.ClassData, false)
	eng.Run()
	var out bytes.Buffer
	g := New(Config{Every: 10 * sim.Microsecond}, sim.Millisecond, 0, nodes, nil, nil, nil)
	g.SetOutput(&out)
	for i := 0; i < 16; i++ {
		g.Tick(eng.Now() + sim.Time(i)*10*sim.Microsecond)
	}
	if g.Deadlocks != 0 {
		t.Errorf("Deadlocks = %d on an acyclic paused chain, want 0:\n%s", g.Deadlocks, out.String())
	}
}

// TestStormRisingEdge holds one monitored port paused through the whole storm
// window and checks the watchdog fires exactly once on the rising edge, then
// re-arms after the pause duty drops.
func TestStormRisingEdge(t *testing.T) {
	eng := sim.NewEngine()
	pool := pkt.NewPool()
	a := link.NewPort(eng, nullEndpoint{}, 0, 25*sim.Gbps, sim.Microsecond, pool)
	b := link.NewPort(eng, nullEndpoint{}, 0, 25*sim.Gbps, sim.Microsecond, pool)
	link.Connect(a, b)
	nd := &Node{ID: 1, Name: "leaf0", Ports: []*link.Port{a}}

	const every = 100 * sim.Microsecond
	g := New(Config{Every: every, StormWindow: 4 * every, StormFrac: 0.9},
		sim.Millisecond, 0, []*Node{nd}, nil, nil, nil)
	g.SetOutput(new(bytes.Buffer))

	b.SendPause(pkt.ClassData, true)
	eng.Run()
	now := eng.Now()
	for i := 0; i < 12; i++ {
		g.Tick(now + sim.Time(i)*every)
	}
	if g.Storms != 1 {
		t.Fatalf("Storms = %d with the port held paused, want exactly 1 rising edge", g.Storms)
	}

	// Resume: duty over the window decays to zero, the latch re-arms, and a
	// second saturation counts again.
	b.SendPause(pkt.ClassData, false)
	eng.Run()
	base := now + 12*every
	for i := 0; i < 8; i++ {
		g.Tick(base + sim.Time(i)*every)
	}
	if g.Storms != 1 {
		t.Fatalf("Storms = %d after the pause lifted, want still 1", g.Storms)
	}
	b.SendPause(pkt.ClassData, true)
	eng.Run()
	base += 8 * every
	for i := 0; i < 12; i++ {
		g.Tick(base + sim.Time(i)*every)
	}
	if g.Storms != 2 {
		t.Errorf("Storms = %d after a second saturation, want 2", g.Storms)
	}
}

// fakeProgress is a scripted guard.Progress probe.
type fakeProgress struct{ acked, out int64 }

func (f *fakeProgress) AckedBytes() int64       { return f.acked }
func (f *fakeProgress) OutstandingBytes() int64 { return f.out }

// TestStallSupervisor scripts the progress probe through idle, stalled and
// recovered phases: the supervisor must fire once per stall — with the halt
// callback and a dump — never while the network is idle, and re-arm after
// progress resumes.
func TestStallSupervisor(t *testing.T) {
	const maxRTT = sim.Millisecond
	probe := &fakeProgress{}
	var halts []string
	var out bytes.Buffer
	g := New(Config{StallK: 2}, maxRTT, 0, nil, []Progress{probe},
		nil, func(reason string) { halts = append(halts, reason) })
	g.SetOutput(&out)

	// Idle (nothing outstanding): the clock must not run.
	for i := 0; i < 8; i++ {
		g.Tick(sim.Time(i) * maxRTT)
	}
	if g.Stalls != 0 || len(halts) != 0 {
		t.Fatalf("supervisor fired on an idle network: stalls=%d halts=%v", g.Stalls, halts)
	}

	// Data outstanding, acked frozen: fires at silent ≥ StallK·maxRTT, once.
	probe.out = 1 << 20
	for i := 8; i < 16; i++ {
		g.Tick(sim.Time(i) * maxRTT)
	}
	if g.Stalls != 1 || len(halts) != 1 {
		t.Fatalf("stalls=%d halts=%v after %d silent RTTs, want exactly 1", g.Stalls, halts, 8)
	}
	if !g.Stalled() {
		t.Error("Stalled() = false after the supervisor fired")
	}
	if !strings.Contains(halts[0], "progress stalled") {
		t.Errorf("halt reason %q does not describe the stall", halts[0])
	}
	if !strings.Contains(out.String(), "no acked-byte progress") {
		t.Errorf("dump does not describe the stall:\n%s", out.String())
	}

	// Progress resumes, then a second stall: the supervisor re-arms.
	probe.acked = 1 << 20
	g.Tick(16 * maxRTT)
	if g.Stalled() {
		t.Error("Stalled() still true after acked bytes moved")
	}
	for i := 17; i < 25; i++ {
		g.Tick(sim.Time(i) * maxRTT)
	}
	if g.Stalls != 2 || len(halts) != 2 {
		t.Errorf("stalls=%d halts=%d after a second stall, want 2", g.Stalls, len(halts))
	}
}

// TestStallDumpMergesRecorders pins that a stall dump replays the merged
// per-shard flight-recorder rings, not just shard 0's.
func TestStallDumpMergesRecorders(t *testing.T) {
	frs := []*metrics.FlightRecorder{
		metrics.NewFlightRecorder(64),
		metrics.NewFlightRecorder(64),
	}
	frs[0].Record(metrics.Event{T: 1, Kind: metrics.EvEnqueue, Node: 7, Flow: 1, Val: 111})
	frs[1].Record(metrics.Event{T: 2, Kind: metrics.EvEnqueue, Node: 8, Flow: 2, Val: 222})
	probe := &fakeProgress{out: 4096}
	var out bytes.Buffer
	g := New(Config{StallK: 1}, sim.Millisecond, 0, nil, []Progress{probe}, frs, nil)
	g.SetOutput(&out)
	for i := 0; i < 4; i++ {
		g.Tick(sim.Time(i) * sim.Millisecond)
	}
	if g.Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1", g.Stalls)
	}
	dump := out.String()
	for _, want := range []string{"node=7", "node=8"} {
		if !strings.Contains(dump, want) {
			t.Errorf("stall dump missing %s (per-shard rings not merged):\n%s", want, dump)
		}
	}
}

// TestConfigDefaults pins the zero-config resolution against maxRTT.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults(2*sim.Millisecond, 500*sim.Microsecond)
	if c.Every != 2*sim.Millisecond {
		t.Errorf("Every default = %v, want maxRTT", c.Every)
	}
	if c.StormWindow != 8*c.Every {
		t.Errorf("StormWindow default = %v, want 8×Every", c.StormWindow)
	}
	if c.StormFrac != 0.9 {
		t.Errorf("StormFrac default = %v, want 0.9", c.StormFrac)
	}
	if c.StallK != 64 {
		t.Errorf("StallK default = %d, want 64", c.StallK)
	}
	// Below a 125 µs RTT, 64 RTTs are shorter than 16 RTO floors: the
	// default patience rises to cover them, and an explicit StallK stands.
	if c := (Config{}).withDefaults(100*sim.Microsecond, 500*sim.Microsecond); c.StallK != 80 {
		t.Errorf("StallK default at a 100 µs RTT = %d, want 80 (16 × 500 µs)", c.StallK)
	}
	if c := (Config{StallK: 4}).withDefaults(100*sim.Microsecond, 500*sim.Microsecond); c.StallK != 4 {
		t.Errorf("explicit StallK = %d, want 4", c.StallK)
	}
}

// TestFindCycleDeterministic pins that the DFS reports the same cycle for the
// same graph regardless of how many times it runs — the dump and the
// flight-recorder attribution must not depend on traversal luck.
func TestFindCycleDeterministic(t *testing.T) {
	eng, nodes, _ := pauseRing(t)
	_ = eng
	var first []*Node
	for i := 0; i < 16; i++ {
		adj := map[*Node][]*Node{
			nodes[0]: {nodes[1]},
			nodes[1]: {nodes[2]},
			nodes[2]: {nodes[0]},
		}
		c := findCycle(nodes, adj)
		if c == nil {
			t.Fatal("findCycle missed a 3-cycle")
		}
		if first == nil {
			first = c
			continue
		}
		if fmt.Sprint(c) != fmt.Sprint(first) {
			t.Fatalf("findCycle nondeterministic: %v vs %v", c, first)
		}
	}
}
