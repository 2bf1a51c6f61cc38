package mlcc

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mlcc/internal/fabric"
	"mlcc/internal/link"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
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
