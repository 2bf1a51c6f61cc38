package metrics_test

import (
	"fmt"
	"testing"

	"mlcc/internal/metrics"
	"mlcc/internal/sim"
	"mlcc/internal/stats"
)

// twoPortSource is a device with one counter, one runtime gauge and a gauge
// on each of two ports, counting how often it is read.
type twoPortSource struct {
	base  float64
	reads int
}

func (s *twoPortSource) Instruments(emit func(port int, name string, kind metrics.Kind, v float64)) {
	s.reads++
	emit(-1, "drops", metrics.Counter, s.base)
	emit(-1, "busy_s", metrics.Runtime, 1)
	for p := 0; p < 2; p++ {
		emit(p, "qlen_bytes", metrics.Gauge, s.base+float64(p))
	}
}

// TestPumpReadsEachSourceOnce pins the SampleAll sampler over sources: one
// Pump asks every source for its instruments exactly once, and the series
// follow registration order — the explicit series first, then each
// source's instruments as it emits them, single computed values in their
// place among the sources — with runtime gauges left out.
func TestPumpReadsEachSourceOnce(t *testing.T) {
	tel := metrics.New(metrics.Options{Metrics: true, SampleInterval: sim.Millisecond, SampleAll: true})
	a, b := &twoPortSource{base: 10}, &twoPortSource{base: 20}
	tel.Reg.Add("switch.a", a)
	tel.Reg.GaugeFunc("sim.now_ms", func() float64 { return 7 })
	tel.Reg.Add("switch.b", b)
	tel.SampleGauge("exp.explicit", &stats.Series{Name: "exp.explicit", Kind: stats.Gauge}, func() float64 { return 1 })
	tel.StartSampling(sim.Millisecond)

	a.reads, b.reads = 0, 0
	tel.Pump(sim.Millisecond)
	if a.reads != 1 || b.reads != 1 {
		t.Fatalf("one Pump read the sources %d and %d times, want once each", a.reads, b.reads)
	}
	var got []string
	for _, ser := range tel.AllSeries() {
		got = append(got, fmt.Sprintf("%s=%v", ser.Name, ser.V))
	}
	want := []string{"exp.explicit=[1]",
		"switch.a.drops=[10]", "switch.a.q0.qlen_bytes=[10]", "switch.a.q1.qlen_bytes=[11]",
		"sim.now_ms=[7]",
		"switch.b.drops=[20]", "switch.b.q0.qlen_bytes=[20]", "switch.b.q1.qlen_bytes=[21]"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("series %v, want %v", got, want)
	}
	if v, ok := tel.Reg.Value("switch.b.busy_s"); !ok || v != 1 || tel.Reg.Len() != 10 {
		t.Fatalf("busy_s = %v, %v; Len = %d; want the runtime gauge read and 10 instruments", v, ok, tel.Reg.Len())
	}
}
