package fault

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"mlcc/internal/link"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// rig is a minimal one-link network: two connected ports with a pushable
// source on A and a delivery-recording sink on B.
type rig struct {
	eng  *sim.Engine
	pool *pkt.Pool
	a, b *link.Port
	src  *pushSource
	rx   *recSink
}

type pushSource struct{ q []*pkt.Packet }

func (s *pushSource) push(p *pkt.Packet) { s.q = append(s.q, p) }

func (s *pushSource) Next(paused *[pkt.NumClasses]bool) *pkt.Packet {
	for i, p := range s.q {
		if paused[p.Kind.Pri()] {
			continue
		}
		s.q = append(s.q[:i], s.q[i+1:]...)
		return p
	}
	return nil
}

type recSink struct {
	pool *pkt.Pool
	seqs []int64
	ctl  int
}

func (s *recSink) Receive(p *pkt.Packet, on *link.Port) {
	if p.Kind == pkt.Data {
		s.seqs = append(s.seqs, p.Seq)
	} else {
		s.ctl++
	}
	s.pool.Put(p)
}

func newRig(t *testing.T) *rig { return newRigDelay(t, 0) }

func newRigDelay(t *testing.T, delay sim.Time) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(), pool: pkt.NewPool(), src: &pushSource{}}
	r.rx = &recSink{pool: r.pool}
	r.a = link.NewPort(r.eng, &recSink{pool: r.pool}, 0, 100*sim.Gbps, delay, r.pool)
	r.b = link.NewPort(r.eng, r.rx, 0, 100*sim.Gbps, delay, r.pool)
	link.Connect(r.a, r.b)
	r.a.SetSource(r.src)
	r.b.SetSource(&pushSource{})
	return r
}

func (r *rig) resolve(name string) (Link, error) {
	return Link{Name: name, A: r.a, B: r.b}, nil
}

// sendAt schedules n data frames (1000 B, consecutive seqs from seq0) at t.
func (r *rig) sendAt(t sim.Time, seq0 int64, n int) {
	r.eng.At(t, func() {
		for i := 0; i < n; i++ {
			r.src.push(r.pool.NewData(1, 0, 1, seq0+int64(i)*1000, 1000))
		}
		r.a.Kick()
	})
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := map[string]*Plan{
		"empty link in event":  {Events: []Event{{At: 1, Action: LinkDown}}},
		"negative event time":  {Events: []Event{{At: -1, Link: "l", Action: LinkDown}}},
		"unknown action":       {Events: []Event{{At: 1, Link: "l", Action: numActions}}},
		"rate factor above 1":  {Events: []Event{{At: 1, Link: "l", Action: Degrade, RateFactor: 1.5}}},
		"negative jitter":      {Events: []Event{{At: 1, Link: "l", Action: Degrade, Jitter: -1}}},
		"empty link in rule":   {Loss: []LossRule{{Prob: 0.1}}},
		"probability one":      {Loss: []LossRule{{Link: "l", Prob: 1}}},
		"negative probability": {Loss: []LossRule{{Link: "l", Prob: -0.1}}},
		"inverted window":      {Loss: []LossRule{{Link: "l", Prob: 0.1, Start: 2, End: 1}}},
	}
	for name, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
	}
	good := &Plan{
		Events: []Event{
			{At: 0, Link: "l", Action: LinkDown},
			{At: 1, Link: "l", Action: Degrade, RateFactor: 0.5, Jitter: 3},
		},
		Loss: []LossRule{{Link: "l", Prob: 0.5, Start: 1, End: 0}}, // End 0 = forever
	}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected a good plan: %v", err)
	}
}

func TestApplyEmptyPlanInstallsNothing(t *testing.T) {
	r := newRig(t)
	resolved := false
	spy := func(name string) (Link, error) { resolved = true; return r.resolve(name) }
	for _, plan := range []*Plan{nil, {}, {Seed: 9}} {
		inj, err := Apply(plan, spy, nil, []*sim.Engine{r.eng}, nil)
		if err != nil || inj != nil {
			t.Fatalf("Apply(%+v) = (%v, %v), want (nil, nil)", plan, inj, err)
		}
	}
	if resolved {
		t.Error("empty plan resolved a link")
	}
	// Nil injector readers must be safe.
	var inj *Injector
	if inj.Down("l") || inj.LinkNameAt(0) != "" {
		t.Error("nil injector accessors not zero")
	}
}

func TestBernoulliLossWindow(t *testing.T) {
	r := newRig(t)
	const n = 1000
	plan := &Plan{
		Seed: 11,
		Loss: []LossRule{{Link: "wan", Prob: 0.5, Start: 100 * sim.Microsecond, End: sim.Second}},
	}
	if _, err := Apply(plan, r.resolve, nil, []*sim.Engine{r.eng}, nil); err != nil {
		t.Fatal(err)
	}
	r.sendAt(0, 0, 200)                     // before the window: all survive
	r.sendAt(100*sim.Microsecond, 1<<20, n) // inside: ~half die
	r.eng.Run()

	if got := len(r.rx.seqs); got < 200 {
		t.Fatalf("pre-window frames dropped: delivered %d of first 200", got)
	}
	for _, s := range r.rx.seqs[:200] {
		if s >= 1<<20 {
			t.Fatalf("pre-window sequence %d out of order", s)
		}
	}
	// A loss rule destroys frames at the transmitter: the sending port
	// counts them, and nothing is cut on the wire.
	delivered, lost := len(r.rx.seqs)-200, r.a.FaultDrops
	if delivered+int(lost) != n {
		t.Fatalf("in-window frames unaccounted: %d delivered + %d dropped != %d",
			delivered, lost, n)
	}
	// 1000 Bernoulli(0.5) draws: [300, 700] is > 20 sigma.
	if lost < 300 || lost > 700 {
		t.Fatalf("port FaultDrops = %d, want ~500", lost)
	}
	if r.b.FaultDrops != 0 || r.a.CutDrops+r.b.CutDrops != 0 {
		t.Fatalf("loss rule destroyed frames off its direction: rx FaultDrops=%d, cuts=%d",
			r.b.FaultDrops, r.a.CutDrops+r.b.CutDrops)
	}
	if out := r.pool.Outstanding(); out != 0 {
		t.Fatalf("pool leak: %d outstanding", out)
	}
}

func TestCorruptionSparesControlFrames(t *testing.T) {
	r := newRig(t)
	plan := &Plan{Seed: 1, Loss: []LossRule{{Link: "wan", Prob: 0.999}}}
	if _, err := Apply(plan, r.resolve, nil, []*sim.Engine{r.eng}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.src.push(r.pool.NewControl(pkt.Ack, 1, 0, 1))
	}
	r.a.Kick()
	r.eng.Run()
	if r.rx.ctl != 100 {
		t.Fatalf("lossy link destroyed control frames: %d of 100 arrived", r.rx.ctl)
	}
}

func TestLossStreamDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		r := newRig(t)
		plan := &Plan{Seed: seed, Loss: []LossRule{{Link: "wan", Prob: 0.5}}}
		if _, err := Apply(plan, r.resolve, nil, []*sim.Engine{r.eng}, nil); err != nil {
			t.Fatal(err)
		}
		r.sendAt(0, 0, 1000)
		r.eng.Run()
		return r.rx.seqs
	}
	a, b := run(21), run(21)
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d vs %d frames", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at delivery %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(22)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different plan seeds produced an identical 1000-draw loss pattern")
	}
}

func TestScriptedEventsAndTelemetry(t *testing.T) {
	// 100 µs propagation: frames serialized at 5 µs are still on the wire
	// when the link is cut at 10 µs, so they are destroyed on arrival at
	// the receiving port (cut-at-delivery).
	r := newRigDelay(t, 100*sim.Microsecond)
	tel := metrics.New(metrics.Options{Metrics: true, FlightRecorderSize: 4096})
	plan := &Plan{
		Seed: 3,
		Events: []Event{
			{At: 10 * sim.Microsecond, Link: "wan", Action: LinkDown},
			{At: 30 * sim.Microsecond, Link: "wan", Action: LinkUp},
			{At: 50 * sim.Microsecond, Link: "wan", Action: Degrade, RateFactor: 0.5},
			{At: 60 * sim.Microsecond, Link: "wan", Action: Restore},
		},
	}
	inj, err := Apply(plan, r.resolve, nil, []*sim.Engine{r.eng}, tel)
	if err != nil {
		t.Fatal(err)
	}
	r.sendAt(5*sim.Microsecond, 0, 10) // in flight at the cut: all destroyed at arrival
	r.sendAt(35*sim.Microsecond, 1<<20, 10)
	r.eng.At(20*sim.Microsecond, func() {
		if !inj.Down("wan") {
			t.Error("Down(wan) false during the outage")
		}
	})
	r.eng.Run()

	if len(r.rx.seqs) != 10 {
		t.Fatalf("delivered %d frames, want exactly the 10 post-up ones", len(r.rx.seqs))
	}
	// Cut-at-delivery attribution: the receiving port destroyed the frames;
	// the transmitter never discarded anything.
	if r.b.CutDrops != 10 || r.a.FaultDrops != 0 {
		t.Fatalf("rx CutDrops=%d tx FaultDrops=%d, want 10/0", r.b.CutDrops, r.a.FaultDrops)
	}

	// Flight recorder saw both the state changes and the drops, all under
	// the fault layer's negative node namespace (never a real node id).
	var states []Action
	drops := 0
	for _, e := range tel.Recorder().Events() {
		switch e.Kind {
		case metrics.EvLinkState:
			states = append(states, Action(e.Val))
		case metrics.EvFaultDrop:
			drops++
		default:
			continue
		}
		if e.Node != FaultNodeID(0) {
			t.Fatalf("fault event Node = %d, want %d (dedicated namespace)", e.Node, FaultNodeID(0))
		}
	}
	// One state event per scripted event, though each fires on both
	// directions.
	if want := []Action{LinkDown, LinkUp, Degrade, Restore}; !slices.Equal(states, want) || drops != 10 {
		t.Fatalf("recorder: link_state %v + %d fault_drop events, want %v + 10", states, drops, want)
	}
	// The link's one instrument reads its ports.
	if v, ok := tel.Registry().Value("fault.link.wan.drops"); !ok || v != 10 {
		t.Errorf("fault.link.wan.drops counter = (%v, %v), want (10, true)", v, ok)
	}
}

func TestApplyUnknownLink(t *testing.T) {
	r := newRig(t)
	bad := func(name string) (Link, error) {
		return Link{}, &unknownLinkError{name}
	}
	plan := &Plan{Events: []Event{{At: 1, Link: "nope", Action: LinkDown}}}
	if _, err := Apply(plan, bad, nil, []*sim.Engine{r.eng}, nil); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("Apply with unknown link: err = %v", err)
	}
}

// TestApplyRefusesTooManyLinks: a link's fault events carry FaultNodeID in
// a flight record's int16 Node, so a plan naming more links than that
// namespace holds is refused rather than wrapped onto a real node id.
func TestApplyRefusesTooManyLinks(t *testing.T) {
	r := newRig(t)
	plan := &Plan{}
	for i := range maxLinks + 1 {
		plan.Events = append(plan.Events, Event{At: sim.Second, Link: fmt.Sprintf("l%d", i), Action: LinkDown})
	}
	if _, err := Apply(plan, r.resolve, nil, []*sim.Engine{r.eng}, nil); err == nil || !strings.Contains(err.Error(), "more than 32768 links") {
		t.Fatalf("Apply with %d links: err = %v", maxLinks+1, err)
	}
	if got := FaultNodeID(maxLinks - 1); got != math.MinInt16 {
		t.Errorf("FaultNodeID(%d) = %d, want %d", maxLinks-1, got, math.MinInt16)
	}
}

type unknownLinkError struct{ name string }

func (e *unknownLinkError) Error() string { return "unknown link " + e.name }

// TestPerShardCounterAggregationRace exercises the injector's shard-safety
// contract under the race detector: two engines, each owning one managed
// link, run concurrently on their own goroutines while scripted events fire
// and loss rules draw on both, each recording into its own shard's flight
// recorder. Down() and the fault.link.* instruments are read only with both
// engines parked — mid-run at a simulated quiescent barrier (both engines
// stopped at the same RunUntil horizon) and again after the run — mirroring
// how topo's quiescent pumps and post-run snapshots read them. Each link's
// instrument must equal its ports' counts, and every offered frame must be
// delivered or counted by a port.
func TestPerShardCounterAggregationRace(t *testing.T) {
	r0 := newRigDelay(t, 50*sim.Microsecond)
	r1 := newRigDelay(t, 50*sim.Microsecond)
	rigs := []*rig{r0, r1}
	resolve := func(name string) (Link, error) {
		switch name {
		case "l0":
			return Link{Name: name, A: r0.a, B: r0.b}, nil
		case "l1":
			return Link{Name: name, A: r1.a, B: r1.b}, nil
		}
		return Link{}, &unknownLinkError{name}
	}
	plan := &Plan{
		Seed: 17,
		Events: []Event{
			{At: 20 * sim.Microsecond, Link: "l0", Action: LinkDown},
			{At: 40 * sim.Microsecond, Link: "l0", Action: LinkUp},
			{At: 20 * sim.Microsecond, Link: "l1", Action: LinkDown},
			{At: 40 * sim.Microsecond, Link: "l1", Action: LinkUp},
		},
		Loss: []LossRule{
			{Link: "l0", Prob: 0.5, Start: 100 * sim.Microsecond},
			{Link: "l1", Prob: 0.5, Start: 100 * sim.Microsecond},
		},
	}
	tel := metrics.New(metrics.Options{Metrics: true, FlightRecorderSize: 4096})
	inj, err := Apply(plan, resolve, nil, []*sim.Engine{r0.eng, r1.eng}, tel)
	if err != nil {
		t.Fatal(err)
	}
	const inFlight, lossy = 20, 500
	for _, r := range rigs {
		r.sendAt(10*sim.Microsecond, 0, inFlight)   // on the wire at the cut
		r.sendAt(110*sim.Microsecond, 1<<20, lossy) // through the loss window
	}
	// step runs both engines concurrently to the same horizon and joins:
	// afterwards both are parked, which is the quiescent safe point for
	// cross-shard reads.
	step := func(until sim.Time) {
		var wg sync.WaitGroup
		for _, r := range rigs {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				if until == 0 {
					r.eng.Run()
				} else {
					r.eng.RunUntil(until)
				}
			}()
		}
		wg.Wait()
	}
	step(30 * sim.Microsecond) // mid-outage barrier
	if !inj.Down("l0") || !inj.Down("l1") {
		t.Fatal("Down() false during the scripted outage")
	}
	// Each down event is recorded once, by the shard owning its link.
	for i, fr := range tel.ShardRecorders(2) {
		if ev := fr.Events(); len(ev) != 1 || ev[0].Kind != metrics.EvLinkState || ev[0].Val != int64(LinkDown) {
			t.Fatalf("shard %d recorded %v mid-outage, want its one link-down event", i, ev)
		}
	}
	step(0) // run to completion
	if inj.Down("l0") || inj.Down("l1") {
		t.Error("Down() true after link-up")
	}
	for i, r := range rigs {
		// Both shards lost frames both ways: cut on the wire (counted at
		// the receiving port) and destroyed by the loss rule (counted at
		// the transmitter).
		if r.b.CutDrops == 0 || r.a.FaultDrops == 0 {
			t.Errorf("l%d: cuts=%d losses=%d, want both > 0", i, r.b.CutDrops, r.a.FaultDrops)
		}
		portDrops := r.a.FaultDrops + r.b.FaultDrops + r.a.CutDrops + r.b.CutDrops
		name := fmt.Sprintf("fault.link.l%d.drops", i)
		if v, ok := tel.Registry().Value(name); !ok || int64(v) != portDrops {
			t.Errorf("%s = (%v, %v), want port ground truth %d", name, v, ok, portDrops)
		}
		// Every offered frame was data: conservation on each shard.
		if got, want := int64(len(r.rx.seqs))+portDrops, int64(inFlight+lossy); got != want {
			t.Errorf("l%d: delivered + dropped = %d != offered %d", i, got, want)
		}
	}
}

// TestShardStreamIndependence pins the per-direction RNG layout: the frames
// a loss rule destroys in direction A must not depend on how much traffic
// direction B carries, because each direction draws from its own stream.
// This is the property that makes sharded runs byte-identical to
// single-engine runs — a shard never consumes another shard's randomness.
func TestShardStreamIndependence(t *testing.T) {
	run := func(reverse int) []int64 {
		r := newRig(t)
		plan := &Plan{Seed: 33, Loss: []LossRule{{Link: "wan", Prob: 0.5}}}
		if _, err := Apply(plan, r.resolve, nil, []*sim.Engine{r.eng}, nil); err != nil {
			t.Fatal(err)
		}
		// Reverse-direction traffic interleaved with the forward sends.
		rsrc := &pushSource{}
		r.b.SetSource(rsrc)
		r.eng.At(0, func() {
			for i := 0; i < reverse; i++ {
				rsrc.push(r.pool.NewData(2, 1, 0, int64(i)*1000, 1000))
			}
			r.b.Kick()
		})
		r.sendAt(0, 1<<20, 400)
		r.eng.Run()
		return r.rx.seqs
	}
	quiet, busy := run(0), run(300)
	if len(quiet) != len(busy) {
		t.Fatalf("reverse traffic changed forward loss pattern: %d vs %d delivered", len(quiet), len(busy))
	}
	for i := range quiet {
		if quiet[i] != busy[i] {
			t.Fatalf("forward stream perturbed by reverse draws at delivery %d", i)
		}
	}
}

func TestStableHashIsStable(t *testing.T) {
	// Pinned value: stream seeding must never drift between versions, or
	// recorded plans replay differently.
	if got := stableHash("longhaul"); got != int64(5908586381303742777) {
		t.Errorf("stableHash(longhaul) = %d changed; loss streams will not replay", got)
	}
	if stableHash("a") == stableHash("b") {
		t.Error("trivial hash collision")
	}
}
