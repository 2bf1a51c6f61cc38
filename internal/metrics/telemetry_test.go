package metrics

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlcc/internal/sim"
	"mlcc/internal/stats"
)

func TestNilTelemetry(t *testing.T) {
	var tel *Telemetry
	if tel.Registry() != nil || tel.Recorder() != nil {
		t.Fatal("nil telemetry not inert")
	}
	tel.SampleGauge("g", &stats.Series{}, func() float64 { return 1 })
	tel.SampleCounterRate("c", &stats.Series{}, 8, func() int64 { return 1 })
	tel.StartSampling(sim.Second)
	tel.Pump(sim.Millisecond)
	if tel.SampleInterval() != 0 {
		t.Fatal("nil telemetry has a sample interval")
	}
	if tel.ShardRecorders(2) != nil || tel.FlightEvents() != nil || tel.FlightRecorded() != 0 {
		t.Fatal("nil telemetry produced flight state")
	}
	if seriesOf(tel, "g") != nil || tel.AllSeries() != nil {
		t.Fatal("nil telemetry produced series")
	}
	if err := tel.WriteDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

func TestNewSelectsPlanes(t *testing.T) {
	tel := New(Options{})
	if tel.Reg != nil || tel.fr != nil || tel.SampleInterval() != 0 {
		t.Fatal("zero options enabled planes")
	}
	tel = New(Options{Metrics: true, FlightRecorderSize: 32, SampleInterval: sim.Millisecond})
	if tel.Reg == nil || tel.fr == nil || tel.SampleInterval() != sim.Millisecond {
		t.Fatal("planes missing")
	}
	if tel.fr.Cap() != 32 {
		t.Fatalf("recorder cap = %d", tel.fr.Cap())
	}
}

// pump drives eng to every multiple of interval up to deadline, pumping tel
// at each boundary — the same loop topo.Network.Run runs for built networks.
func pump(eng *sim.Engine, tel *Telemetry, interval, deadline sim.Time) {
	for b := interval; b <= deadline; b += interval {
		eng.RunUntil(b)
		tel.Pump(b)
	}
	eng.RunUntil(deadline)
}

// TestSamplingTicksAndStopBoundary: first tick at interval, last tick exactly
// at the stop time when stop is a multiple of the interval. Boundaries pumped
// past the armed stop time are ignored. The caller's series is the one
// sampled into, and the one Series finds under the registry name.
func TestSamplingTicksAndStopBoundary(t *testing.T) {
	eng := sim.NewEngine()
	tel := New(Options{Metrics: true, SampleInterval: sim.Millisecond})

	calls := 0
	g := &stats.Series{Name: "g", Kind: stats.Gauge}
	tel.SampleGauge("exp.g", g, func() float64 { calls++; return float64(calls) })
	bytes := int64(0)
	rate := &stats.Series{Name: "rate", Kind: stats.FlowRate}
	tel.SampleCounterRate("exp.rate", rate, 8, func() int64 { return bytes })

	tel.StartSampling(10 * sim.Millisecond)
	for i := 1; i <= 10; i++ {
		eng.At(sim.Time(i)*sim.Millisecond-sim.Nanosecond, func() { bytes += 1 << 20 })
	}
	pump(eng, tel, sim.Millisecond, 12*sim.Millisecond)

	if seriesOf(tel, "exp.g") != g || seriesOf(tel, "exp.rate") != rate || seriesOf(tel, "g") != nil {
		t.Fatal("Series does not return the registered series by registry name")
	}
	ts, vs := g.T, g.V
	if len(ts) != 10 {
		t.Fatalf("gauge samples = %d, want 10 (tick at the stop boundary included)", len(ts))
	}
	if ts[0] != sim.Millisecond || ts[9] != 10*sim.Millisecond {
		t.Fatalf("tick times: first=%v last=%v", ts[0], ts[9])
	}
	if vs[0] != 1 || vs[9] != 10 {
		t.Fatalf("gauge values: %v", vs)
	}
	want := float64(1<<20) * 8 / 0.001
	if rate.Len() != 10 {
		t.Fatalf("rate samples = %d, want 10", rate.Len())
	}
	for i, r := range rate.V {
		if r < want*0.99 || r > want*1.01 {
			t.Fatalf("rate[%d] = %v, want ~%v", i, r, want)
		}
	}
}

// TestSampleAll expands every registered counter and gauge into series
// without duplicating explicitly sampled ones.
func TestSampleAll(t *testing.T) {
	eng := sim.NewEngine()
	tel := New(Options{Metrics: true, SampleInterval: sim.Millisecond, SampleAll: true})
	tel.Reg.CounterFunc("switch.s0.drops", func() int64 { return 3 })
	tel.Reg.GaugeFunc("switch.s0.qlen", func() float64 { return 5 })
	tel.SampleGauge("exp.explicit", &stats.Series{Name: "exp.explicit", Kind: stats.Gauge}, func() float64 { return 1 })

	tel.StartSampling(2 * sim.Millisecond)
	pump(eng, tel, sim.Millisecond, 2*sim.Millisecond)

	for _, name := range []string{"switch.s0.drops", "switch.s0.qlen", "exp.explicit"} {
		if ser := seriesOf(tel, name); ser.Len() != 2 {
			t.Errorf("series %q has %d samples, want 2", name, ser.Len())
		}
	}
	all := tel.AllSeries()
	if len(all) != 3 || all[0].Name != "exp.explicit" {
		t.Fatalf("%d series, first %q (explicit series come first and must not duplicate)", len(all), all[0].Name)
	}
	drops := seriesOf(tel, "switch.s0.drops")
	if drops.Kind != stats.Counter || seriesOf(tel, "switch.s0.qlen").Kind != stats.Gauge {
		t.Fatalf("SampleAll kinds: %q, %q", drops.Kind, seriesOf(tel, "switch.s0.qlen").Kind)
	}
	if drops.V[0] != 3 {
		t.Fatalf("counter sampled by value: %v", drops.V)
	}
}

func TestWriteDir(t *testing.T) {
	eng := sim.NewEngine()
	tel := New(Options{Metrics: true, FlightRecorderSize: 8, SampleInterval: sim.Millisecond})
	tel.Reg.CounterFunc("sim.test", func() int64 { return 2 })
	tel.SampleGauge("exp.g", &stats.Series{Name: "exp.g", Kind: stats.Gauge}, func() float64 { return 1 })
	tel.fr.Record(Event{T: sim.Microsecond, Kind: EvDrop, Node: 1, Flow: 9, Val: 1000})
	tel.StartSampling(2 * sim.Millisecond)
	pump(eng, tel, sim.Millisecond, 2*sim.Millisecond)

	m := NewManifest("test-tool")
	m.Seed = 42
	m.FillSim(eng.Now(), eng.Fired())
	tel.Manifest = m

	dir := filepath.Join(t.TempDir(), "out")
	if err := tel.WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decoded Manifest
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if decoded.Tool != "test-tool" || decoded.Seed != 42 {
		t.Fatalf("manifest fields: %+v", decoded)
	}
	if decoded.Counters["sim.test"] != 2 {
		t.Fatalf("counter snapshot missing: %v", decoded.Counters)
	}
	if decoded.GoVersion == "" {
		t.Fatal("go_version empty")
	}

	csv, err := os.ReadFile(filepath.Join(dir, "series.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "stream,kind,time_ms,value\nexp.g,gauge,1.000000,1.000000\nexp.g,gauge,2.000000,1.000000\n"; string(csv) != want {
		t.Fatalf("series.csv: %q, want %q", csv, want)
	}

	fl, err := os.ReadFile(filepath.Join(dir, "flight.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fl), "drop") {
		t.Fatalf("flight.log: %q", fl)
	}

	tj, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tj, &tr); err != nil {
		t.Fatalf("trace.json not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace.json has no events")
	}

	// Nothing the exporter left behind: atomic writes clean up their temps.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// seriesOf returns the time series sampled under the given registry name — the
// series itself, not a copy — or nil when there is none.
func seriesOf(t *Telemetry, name string) *stats.Series {
	if t == nil {
		return nil
	}
	for _, sp := range t.specs {
		if sp.name == name {
			return sp.series
		}
	}
	return nil
}
