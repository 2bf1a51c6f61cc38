package mlcc

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlcc/internal/fabric"
	"mlcc/internal/fault"
	"mlcc/internal/link"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/workload"
)

// TestTelemetryDisabledPathAllocFree proves the telemetry layer's
// zero-overhead contract on the simulator's hot paths: with no telemetry
// attached the link-transfer and switch-forward loops must not allocate, and
// attaching a flight recorder plus registry must not add allocations either
// (the ring is pre-sized and registry instruments are read only at snapshot
// time).
func TestTelemetryDisabledPathAllocFree(t *testing.T) {
	t.Run("link", func(t *testing.T) {
		e := sim.NewEngine()
		pool := pkt.NewPool()
		sink := &benchSink{pool: pool}
		feed := &benchFeed{pool: pool}
		a := link.NewPort(e, sink, 0, 100*sim.Gbps, sim.Microsecond, pool)
		z := link.NewPort(e, sink, 0, 100*sim.Gbps, sim.Microsecond, pool)
		link.Connect(a, z)
		a.SetSource(feed)
		z.SetSource(&benchFeed{pool: pool})
		step := func() {
			feed.remaining = 1
			a.Kick()
			e.Run()
		}
		for i := 0; i < 100; i++ { // reach pool steady state
			step()
		}
		if n := testing.AllocsPerRun(200, step); n != 0 {
			t.Errorf("link transfer allocated %v/op with telemetry disabled", n)
		}
	})

	forward := func(t *testing.T, attach bool) {
		e := sim.NewEngine()
		pool := pkt.NewPool()
		sw := fabric.New(e, pool, fabric.Config{
			ID: 100, BufferBytes: 22 << 20,
			ECNKmin: 100 << 10, ECNKmax: 400 << 10, ECNPmax: 0.2,
			INTEnabled: true, Seed: 1,
		})
		sink := &benchSink{pool: pool}
		idle := &benchFeed{pool: pool}
		p0 := sw.AddPort(100*sim.Gbps, sim.Microsecond)
		p1 := sw.AddPort(100*sim.Gbps, sim.Microsecond)
		e0 := link.NewPort(e, sink, 0, 100*sim.Gbps, sim.Microsecond, pool)
		e1 := link.NewPort(e, sink, 0, 100*sim.Gbps, sim.Microsecond, pool)
		e0.SetSource(idle)
		e1.SetSource(idle)
		link.Connect(p0, e0)
		link.Connect(p1, e1)
		sw.AddRoute(2, 1)
		if attach {
			sw.SetRecorder(metrics.NewFlightRecorder(256))
			metrics.NewRegistry().Add("switch.s0", sw)
		}
		step := func() {
			sw.Receive(pool.NewData(1, 1, 2, 0, pkt.DefaultMTU), sw.Port(0))
			e.Run()
		}
		for i := 0; i < 100; i++ {
			step()
		}
		if n := testing.AllocsPerRun(200, step); n != 0 {
			t.Errorf("switch forward allocated %v/op (telemetry attached=%v)", n, attach)
		}
	}
	t.Run("switch-disabled", func(t *testing.T) { forward(t, false) })
	t.Run("switch-enabled", func(t *testing.T) { forward(t, true) })
}

// TestRunWithTelemetryWritesArtifacts is the end-to-end acceptance check for
// the dumbbell scenario: a Run with telemetry attached must produce a
// manifest, a time-series CSV, and a flight-recorder log.
func TestRunWithTelemetryWritesArtifacts(t *testing.T) {
	tel := NewTelemetry(TelemetryOptions{
		Metrics:            true,
		FlightRecorderSize: 128,
		SampleInterval:     100 * Microsecond,
		SampleAll:          true,
	})
	res, err := Run(Config{
		Algorithm: "mlcc",
		IntraLoad: 0.3,
		CrossLoad: 0.3,
		Duration:  Millisecond,
		Dumbbell:  true,
		Telemetry: tel,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows == 0 {
		t.Fatal("no flows ran")
	}

	dir := t.TempDir()
	if err := tel.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Tool      string             `json:"tool"`
		Algorithm string             `json:"algorithm"`
		Counters  map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if m.Tool != "mlccsim" || m.Algorithm != "mlcc" {
		t.Fatalf("manifest tool/algorithm = %q/%q", m.Tool, m.Algorithm)
	}
	if len(m.Counters) == 0 {
		t.Fatal("manifest counters empty")
	}
	if _, ok := m.Counters["sim.events_fired"]; !ok {
		t.Fatalf("sim.events_fired missing from counters (%d entries)", len(m.Counters))
	}
	if tel.Recorder().Recorded() == 0 {
		t.Fatal("flight recorder saw no events")
	}
	for _, name := range []string{"series.csv", "flight.log"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}

// TestTraceThreadsPastNinetyNineHosts pins that trace.json puts every host
// event on its host's thread on a fabric of more than 99 hosts: 128 hosts
// (16 per leaf) run 300 µs of Websearch under MLCC, and every send, deliver,
// ack, CNP, watchdog and invalid-feedback record sits on a thread named
// "host<i>", hosts 99 and up included. While switch ids were fixed blocks
// from 100, host99's id was leaf0's and its events landed on leaf0's thread.
func TestTraceThreadsPastNinetyNineHosts(t *testing.T) {
	tel := NewTelemetry(TelemetryOptions{FlightRecorderSize: 1 << 16})
	if _, err := Run(Config{Algorithm: "mlcc", Workload: "websearch", IntraLoad: 0.2, CrossLoad: 0.2,
		Duration: 300 * Microsecond, HostsPerLeaf: 16, Seed: 1, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	if rec := tel.FlightRecorded(); rec >= 1<<16 {
		t.Fatalf("%d events recorded: the ring wrapped", rec)
	}
	dir := t.TempDir()
	if err := tel.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph, Name, Cat string
			Pid, Tid      int32
			Args          struct{ Name string }
		}
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatal(err)
	}
	type track struct{ pid, tid int32 }
	thread := map[track]string{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			thread[track{ev.Pid, ev.Tid}] = ev.Args.Name
		}
	}
	hostKinds := map[string]bool{"send": true, "deliver": true, "ack": true, "cnp": true, "watchdog": true, "fb_invalid": true}
	past99 := 0
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "M" || ev.Cat != "flight" && !hostKinds[ev.Name] {
			continue
		}
		name := thread[track{ev.Pid, ev.Tid}]
		var h int
		if _, err := fmt.Sscanf(name, "host%d", &h); err != nil {
			t.Fatalf("host event %q of flow %d on thread %d, named %q", ev.Name, ev.Pid, ev.Tid, name)
		}
		if h >= 99 {
			past99++
		}
	}
	if past99 == 0 {
		t.Fatal("no host event from host99 or later: the run does not reach the ids that once aliased")
	}
}

// TestFlightArtifactsPinned pins the bytes of flight.log and trace.json for
// one armed run whose ring never wraps and that records every producer: 15
// senders incast on host0 at 16 hosts under MLCC (switch enq/deq/PFC, host
// send/deliver/ack/rate, DCI rate), a long-haul cut plus loss, feedback
// drop/delay/corruption and a spine failure (the fault kinds), and a guard
// tuned to flag the incast's pause storm. A layout or writer change that
// moves one byte of either file fails here. The hashes are those the 32-byte
// Event layout's writers produced for this run's stream less the 80 DCI
// rate events that left the PFQ's rate unchanged, which the DCI no longer
// records; the 24-byte layout alone reproduced that layout's files exactly.
// Dense node ids moved them once more: the files of the per-tier id blocks,
// with each switch id mapped to its table row + 1 (leaf 100+i to 17+i, spine
// 200+i to 25+i, DCI 300+d to 29+d; hosts and fault ids kept), equal these
// byte for byte.
func TestFlightArtifactsPinned(t *testing.T) {
	tel := NewTelemetry(TelemetryOptions{FlightRecorderSize: 1 << 16})
	cfg := Config{Algorithm: "mlcc", Duration: 300 * Microsecond, HostsPerLeaf: 2, Seed: 1, Telemetry: tel}
	for i := range 15 {
		src := 1 + i
		cfg.Flows = append(cfg.Flows, workload.FlowSpec{Src: src, Dst: 0, Size: 200_000, Cross: src >= 8, Start: Time(i%2) * Microsecond})
	}
	cfg.Fault = &fault.Plan{
		Seed: 7,
		Events: []fault.Event{
			{At: 50 * Microsecond, Link: "longhaul", Action: fault.LinkDown},
			{At: 80 * Microsecond, Link: "longhaul", Action: fault.LinkUp},
		},
		Loss: []fault.LossRule{{Link: "longhaul", Prob: 0.001}},
		Feedback: []fault.FeedbackRule{{Host: "*", Kinds: fault.FBAck, Drop: 0.1, Delay: 2 * Microsecond, Corrupt: 0.05,
			Start: 20 * Microsecond, End: 300 * Microsecond}},
		Nodes: []fault.NodeEvent{
			{At: 150 * Microsecond, Node: "spine0", Action: fault.SwitchFail},
			{At: 200 * Microsecond, Node: "spine0", Action: fault.SwitchRecover},
		},
	}
	cfg.FBWatchdogK = DefaultFBWatchdogK
	cfg.Guard = &GuardConfig{Every: 2 * Microsecond, StormWindow: 4 * Microsecond, StormFrac: 0.01}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	kinds := map[metrics.EventKind]int{}
	dciRates := 0
	for _, ev := range tel.FlightEvents() {
		kinds[ev.Kind]++
		if ev.Kind == metrics.EvRateUpdate && strings.HasPrefix(tel.NodeNamer(int32(ev.Node)), "dci") {
			dciRates++
		}
	}
	if rec := tel.FlightRecorded(); rec >= 1<<16 {
		t.Fatalf("%d events recorded: the ring wrapped", rec)
	}
	for _, k := range []metrics.EventKind{metrics.EvEnqueue, metrics.EvPFCPause, metrics.EvSend, metrics.EvFBInvalid,
		metrics.EvFaultDrop, metrics.EvLinkState, metrics.EvFBDrop, metrics.EvFBDelay, metrics.EvFBCorrupt,
		metrics.EvNodeState, metrics.EvGuardStorm} {
		if kinds[k] == 0 {
			t.Errorf("no %s event recorded", k)
		}
	}
	if dciRates == 0 {
		t.Error("no DCI rate event recorded")
	}

	dir := t.TempDir()
	if err := tel.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"flight.log": "1bc693b831bea8035609338eaabdba3bb009916e49e2cc0c47976712d51fea95",
		"trace.json": "6332086bbe603d865948fb83d19dcaae8832c9a82042ad566fa971cfca485d97",
	} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
}

// benchSink counts and frees every delivered frame.
type benchSink struct {
	pool *pkt.Pool
	got  int64
}

func (s *benchSink) Receive(p *pkt.Packet, on *link.Port) {
	s.got++
	s.pool.Put(p)
}

// benchFeed emits a fixed number of MTU-sized data frames.
type benchFeed struct {
	pool      *pkt.Pool
	remaining int
}

func (f *benchFeed) Next(paused *[pkt.NumClasses]bool) *pkt.Packet {
	if f.remaining == 0 {
		return nil
	}
	f.remaining--
	return f.pool.NewData(1, 1, 2, 0, pkt.DefaultMTU)
}
