// Package guard is the runtime-invariant plane: watchdogs that read the
// simulation at quiescent points (every engine parked, so cross-shard reads
// need no synchronization) and flag pathologies the per-packet conservation
// audit cannot see because every individual packet is accounted for while the
// system as a whole goes nowhere. Three detectors:
//
//   - PFC pause storm: a port whose transmit direction spends more than a
//     configured fraction of a sliding window paused — sustained back-pressure
//     saturation rather than a transient burst.
//   - Pause-cycle deadlock: a cycle in the paused-port wait-for graph
//     (device X's port paused ⇒ X waits on the device that paused it, the
//     owner of the peer port). A cycle of switches holding each other paused
//     is the classic PFC deadlock; it can persist forever with zero drops.
//   - Global progress stall: no acked-byte progress anywhere for K·maxRTT
//     while data is outstanding. Fires a flight-recorder dump and requests a
//     graceful diagnostic abort instead of letting the run idle to its
//     deadline.
//
// The plane is strictly read-only with respect to simulation state: it
// schedules no events, mutates no component, and a run with the guard armed
// but untriggered executes the exact same event sequence — and produces the
// same determinism digest — as one without it.
package guard

import (
	"fmt"
	"io"
	"os"

	"mlcc/internal/link"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// Progress is a per-host progress probe, read only at quiescent points.
// host.Host implements it.
type Progress interface {
	// AckedBytes is cumulative acknowledged payload bytes across the host's
	// sender-side flows, monotone for the life of the run.
	AckedBytes() int64
	// OutstandingBytes is un-acked bytes inside active go-back-N windows.
	OutstandingBytes() int64
}

// Node is one device in the wait-for graph: its identity (flight-recorder id
// and plan-style name) and the ports whose transmit directions it owns.
type Node struct {
	ID    int32
	Name  string
	Ports []*link.Port
}

// Config tunes the guard plane. Zero values take defaults at New, expressed
// in units of the topology's maximum base RTT so one configuration scales
// across topologies.
type Config struct {
	// Every is the tick interval. Default: maxRTT.
	Every sim.Time `json:"every_us,omitempty"`
	// StormWindow is the sliding window over which per-port pause fractions
	// are measured. Default: 8×Every. Rounded up to a whole number of ticks.
	StormWindow sim.Time `json:"storm_window_us,omitempty"`
	// StormFrac is the cumulative-pause fraction of StormWindow at or above
	// which a port is storming. Default: 0.9.
	StormFrac float64 `json:"storm_frac,omitempty"`
	// StallK is the global progress supervisor's patience: no acked-byte
	// progress for StallK·maxRTT with data outstanding is a stall.
	// Default: 64, raised until the patience covers 16 RTO floors, so that
	// four backed-off go-back-N timeouts (1+2+4+8 floors) fit in it: on a
	// short cross-DC RTT a blackout the senders are still recovering from
	// is not a stall.
	StallK int `json:"stall_k,omitempty"`
}

// withDefaults resolves zero fields against maxRTT and the hosts' RTO floor.
func (c Config) withDefaults(maxRTT, rtoMin sim.Time) Config {
	if c.Every <= 0 {
		c.Every = maxRTT
	}
	if c.StormWindow <= 0 {
		c.StormWindow = 8 * c.Every
	}
	if c.StormFrac <= 0 {
		c.StormFrac = 0.9
	}
	if c.StallK <= 0 {
		c.StallK = max(64, int((16*rtoMin+maxRTT-1)/maxRTT))
	}
	return c
}

// portState is one monitored transmit direction: a ring of PausedTotalAt
// samples (one per tick) long enough to look StormWindow into the past, plus
// the rising-edge latch.
type portState struct {
	node     *Node
	port     *link.Port
	hist     []sim.Time // sample ring; len = window+1
	n        int        // samples taken
	storming bool
}

// Plane is one armed guard plane. Build with New, drive with Tick from a
// quiescent hook.
type Plane struct {
	cfg    Config
	maxRTT sim.Time

	nodes []*Node
	owner map[*link.Port]*Node
	ports []portState
	hosts []Progress

	frs  []*metrics.FlightRecorder // per-shard rings, merged into dumps; may be nil/empty
	out  io.Writer
	halt func(reason string)

	window int // storm window in ticks

	lastAcked  int64
	lastChange sim.Time
	started    bool
	stalled    bool
	deadlocked bool

	// Counters (read at quiescent points; the plane is a metrics.Source).
	Ticks     int64
	Storms    int64 // rising edges of per-port pause-storm state
	Deadlocks int64 // rising edges of wait-for-graph cycle state
	Stalls    int64 // global progress stalls detected (at most 1 per halt)
}

// New builds a guard plane over the given devices and progress probes.
// maxRTT scales the defaults (use the topology's largest base RTT) and
// rtoMin, the hosts' go-back-N timeout floor, bounds the default stall
// patience from below; frs are
// the run's per-shard flight recorders (nil is fine — dumps then carry no
// event replay); halt, when non-nil, is invoked once on a progress stall to
// request a graceful diagnostic abort. Violation dumps go to os.Stderr until
// SetOutput.
func New(cfg Config, maxRTT, rtoMin sim.Time, nodes []*Node, hosts []Progress,
	frs []*metrics.FlightRecorder, halt func(reason string)) *Plane {
	if maxRTT <= 0 {
		maxRTT = sim.Millisecond
	}
	cfg = cfg.withDefaults(maxRTT, rtoMin)
	window := int((cfg.StormWindow + cfg.Every - 1) / cfg.Every)
	if window < 1 {
		window = 1
	}
	g := &Plane{
		cfg:    cfg,
		maxRTT: maxRTT,
		nodes:  nodes,
		owner:  make(map[*link.Port]*Node),
		hosts:  hosts,
		frs:    frs,
		out:    os.Stderr,
		halt:   halt,
		window: window,
	}
	nports := 0
	for _, nd := range nodes {
		nports += len(nd.Ports)
	}
	// One state array and one sample array serve every port.
	g.ports = make([]portState, 0, nports)
	ring := window + 1
	hist := make([]sim.Time, nports*ring)
	for _, nd := range nodes {
		for _, p := range nd.Ports {
			g.owner[p] = nd
			g.ports = append(g.ports, portState{node: nd, port: p, hist: hist[:ring:ring]})
			hist = hist[ring:]
		}
	}
	return g
}

// Every reports the resolved tick interval, for quiescent-hook registration.
func (g *Plane) Every() sim.Time { return g.cfg.Every }

// SetOutput redirects violation dumps (tests) and returns the previous
// writer.
func (g *Plane) SetOutput(w io.Writer) io.Writer {
	prev := g.out
	g.out = w
	return prev
}

// Instruments implements metrics.Source: the plane's counters, registered
// under "guard".
func (g *Plane) Instruments(emit func(port int, name string, kind metrics.Kind, v float64)) {
	emit(-1, "ticks", metrics.Counter, float64(g.Ticks))
	emit(-1, "storms", metrics.Counter, float64(g.Storms))
	emit(-1, "deadlocks", metrics.Counter, float64(g.Deadlocks))
	emit(-1, "stalls", metrics.Counter, float64(g.Stalls))
}

// Stalled reports whether the progress supervisor has fired.
func (g *Plane) Stalled() bool { return g.stalled }

// Tick runs every detector once. It must be called with the simulation
// quiescent (topo.Network.OnQuiescent provides exactly that), at the interval
// the plane was configured with.
func (g *Plane) Tick(now sim.Time) {
	g.Ticks++
	g.tickStorms(now)
	g.tickDeadlock(now)
	g.tickStall(now)
}

// record appends a guard event to the first shard's flight recorder — guard
// events originate on the driving goroutine, so one ring keeps the merged
// stream deterministic.
func (g *Plane) record(ev metrics.Event) {
	if len(g.frs) > 0 {
		g.frs[0].Record(ev)
	}
}

// tickStorms samples every monitored port's cumulative pause time and fires
// on the rising edge of (pause time over the last StormWindow) / StormWindow
// crossing StormFrac.
func (g *Plane) tickStorms(now sim.Time) {
	for i := range g.ports {
		ps := &g.ports[i]
		pt := ps.port.PausedTotalAt(now)
		ps.hist[ps.n%len(ps.hist)] = pt
		ps.n++
		if ps.n <= g.window {
			continue
		}
		old := ps.hist[(ps.n-1-g.window)%len(ps.hist)]
		frac := float64(pt-old) / float64(sim.Time(g.window)*g.cfg.Every)
		if frac >= g.cfg.StormFrac {
			if !ps.storming {
				ps.storming = true
				g.Storms++
				g.record(metrics.Event{T: now, Kind: metrics.EvGuardStorm,
					Node: int16(ps.node.ID), Port: int8(ps.port.Index),
					Val: int64(frac * 1e6)})
			}
		} else {
			ps.storming = false
		}
	}
}

// tickDeadlock walks the paused-port wait-for graph: device X with a paused
// transmit port waits on the owner of that port's peer (the device holding
// it paused). A cycle means a PFC deadlock — every device in it waits for
// pause relief that only another member can grant. Fires on the rising edge
// and dumps the cycle plus the flight-recorder tail.
func (g *Plane) tickDeadlock(now sim.Time) {
	// Adjacency in node order, deterministically, allocated at the first
	// paused port.
	var adj map[*Node][]*Node
	for _, nd := range g.nodes {
		for _, p := range nd.Ports {
			if !p.Paused(pkt.ClassData) || p.Peer() == nil {
				continue
			}
			if holder, ok := g.owner[p.Peer()]; ok && holder != nd {
				if adj == nil {
					adj = make(map[*Node][]*Node, len(g.nodes))
				}
				adj[nd] = append(adj[nd], holder)
			}
		}
	}
	if adj == nil {
		g.deadlocked = false
		return
	}
	cycle := findCycle(g.nodes, adj)
	if cycle == nil {
		g.deadlocked = false
		return
	}
	if g.deadlocked {
		return
	}
	g.deadlocked = true
	g.Deadlocks++
	g.record(metrics.Event{T: now, Kind: metrics.EvGuardDeadlock,
		Node: int16(cycle[0].ID), Port: -1, Val: int64(len(cycle))})
	fmt.Fprintf(g.out, "guard: PFC pause cycle at %v:", now)
	for _, nd := range cycle {
		fmt.Fprintf(g.out, " %s", nd.Name)
	}
	fmt.Fprintf(g.out, " -> %s\n", cycle[0].Name)
	g.dump()
}

// findCycle runs an iterative colored DFS over adj in deterministic node
// order and returns the first cycle found (in wait order), or nil.
func findCycle(nodes []*Node, adj map[*Node][]*Node) []*Node {
	const (
		white = 0 // unvisited
		grey  = 1 // on the current DFS path
		black = 2 // fully explored, cycle-free
	)
	color := make(map[*Node]int, len(nodes))
	var path []*Node
	var dfs func(nd *Node) []*Node
	dfs = func(nd *Node) []*Node {
		color[nd] = grey
		path = append(path, nd)
		for _, next := range adj[nd] {
			switch color[next] {
			case white:
				if c := dfs(next); c != nil {
					return c
				}
			case grey:
				// Cycle: the path suffix from next onward.
				for i, x := range path {
					if x == next {
						return append([]*Node(nil), path[i:]...)
					}
				}
			}
		}
		path = path[:len(path)-1]
		color[nd] = black
		return nil
	}
	for _, nd := range nodes {
		if color[nd] == white && len(adj[nd]) > 0 {
			if c := dfs(nd); c != nil {
				return c
			}
		}
	}
	return nil
}

// tickStall drives the global progress supervisor: the no-progress clock runs
// only while data is outstanding somewhere (an idle network is not stalled,
// and neither is one whose window just opened after a long idle gap), and
// fires once per stall with a flight-recorder dump and a halt request.
func (g *Plane) tickStall(now sim.Time) {
	var acked, outstanding int64
	for _, h := range g.hosts {
		acked += h.AckedBytes()
		outstanding += h.OutstandingBytes()
	}
	if !g.started || acked != g.lastAcked || outstanding == 0 {
		g.started = true
		g.lastAcked = acked
		g.lastChange = now
		g.stalled = false
		return
	}
	if g.stalled {
		return
	}
	silent := now - g.lastChange
	if silent < sim.Time(g.cfg.StallK)*g.maxRTT {
		return
	}
	g.stalled = true
	g.Stalls++
	g.record(metrics.Event{T: now, Kind: metrics.EvGuardStall,
		Node: -1, Port: -1, Val: int64(silent)})
	fmt.Fprintf(g.out, "guard: no acked-byte progress for %v with %d bytes outstanding (stall window %d x %v)\n",
		silent, outstanding, g.cfg.StallK, g.maxRTT)
	g.dump()
	if g.halt != nil {
		g.halt(fmt.Sprintf("guard: progress stalled for %v with %d bytes outstanding", silent, outstanding))
	}
}

// dump replays the merged flight-recorder tail to the plane's output — the
// non-panicking counterpart of metrics.Violation, because a guard firing is a
// diagnosis, not a broken conservation law.
func (g *Plane) dump() {
	var total uint64
	var capacity int
	live := g.frs[:0:0]
	for _, fr := range g.frs {
		if fr != nil {
			live = append(live, fr)
			total += fr.Recorded()
			capacity += fr.Cap()
		}
	}
	if len(live) == 0 {
		return
	}
	_ = metrics.DumpEvents(g.out, metrics.MergeEvents(live...), total, capacity)
}
