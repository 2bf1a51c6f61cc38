package scenario

import (
	"bytes"
	"testing"

	"mlcc/internal/sim"
)

// FuzzScenarioPlan hammers ReadPlan with arbitrary bytes: it must reject or
// accept, never panic — and every plan it accepts must satisfy Validate and
// survive writePlan→ReadPlan with all fields intact (times within the float64
// microsecond precision the JSON schema carries). The hostile inputs of
// interest are times whose float→int64 conversion is implementation-defined,
// contradictory workers/hosts pairs, and shapes that would once have
// generated silently-empty schedules. A committed seed corpus lives in
// testdata/fuzz/FuzzScenarioPlan.
func FuzzScenarioPlan(f *testing.F) {
	f.Add([]byte(`{"seed":7,"collectives":[{"name":"ring","workers":8,"tensor_bytes":65536,"phases":4,"gap_us":5}]}`))
	f.Add([]byte(`{"incasts":[{"name":"burst","dst":0,"fan_in":3,"bytes":65536,"waves":2,"interval_us":500}]}`))
	f.Add([]byte(`{"shuffles":[{"name":"s","hosts":[0,4,2,6],"bytes":1024,"stagger_us":10}]}`))
	f.Add([]byte(`{"tenants":[{"name":"web","workload":"websearch","intra_load":0.3,"cross_load":0.1,"duration_us":2000}]}`))
	f.Add([]byte(`{"name":"space","tenants":[{"name":"b","workload":"hadoop","cross_load":0.1,"duration_us":5000}]}`))
	f.Add([]byte(`{"collectives":[{"name":"c","workers":2,"tensor_bytes":1,"phases":2,"gap_us":9.3e18}]}`))
	f.Add([]byte(`{"tenants":[{"name":"t","workload":"websearch","intra_load":-1,"duration_us":1}]}`))
	f.Add([]byte(`{"collectives":[{"name":"c","workers":4,"hosts":[0,1],"tensor_bytes":1,"phases":1}]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ReadPlan accepted a plan Validate rejects: %v", err)
		}
		var buf bytes.Buffer
		if err := writePlan(&buf, p); err != nil {
			t.Fatalf("writePlan: %v", err)
		}
		p2, err := ReadPlan(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected its own output: %v\n%s", err, buf.Bytes())
		}
		if p2.Seed != p.Seed || p2.Name != p.Name ||
			len(p2.Collectives) != len(p.Collectives) || len(p2.Incasts) != len(p.Incasts) ||
			len(p2.Shuffles) != len(p.Shuffles) || len(p2.Tenants) != len(p.Tenants) {
			t.Fatalf("round trip changed shape: %+v vs %+v", p, p2)
		}
		// Microsecond fields pass through float64: exact below ~2^51 ps, a
		// bounded rounding error near the int64 clock's rim.
		timeClose := func(a, b sim.Time) bool {
			d := a - b
			if d < 0 {
				d = -d
			}
			return d <= sim.Nanosecond+a/(1<<40)
		}
		if !timeClose(p.Poll, p2.Poll) {
			t.Fatalf("poll drifted: %v vs %v", p.Poll, p2.Poll)
		}
		for i := range p.Collectives {
			a, b := p.Collectives[i], p2.Collectives[i]
			if a.Name != b.Name || a.Workers != b.Workers || len(a.Hosts) != len(b.Hosts) ||
				a.Tensor != b.Tensor || a.Phases != b.Phases {
				t.Fatalf("collective %d changed: %+v vs %+v", i, a, b)
			}
			for j := range a.Hosts {
				if a.Hosts[j] != b.Hosts[j] {
					t.Fatalf("collective %d placement changed: %v vs %v", i, a.Hosts, b.Hosts)
				}
			}
			if !timeClose(a.Start, b.Start) || !timeClose(a.Gap, b.Gap) {
				t.Fatalf("collective %d times drifted: %+v vs %+v", i, a, b)
			}
		}
		for i := range p.Incasts {
			a, b := p.Incasts[i], p2.Incasts[i]
			if a.Name != b.Name || a.Dst != b.Dst || a.FanIn != b.FanIn ||
				a.Bytes != b.Bytes || a.Waves != b.Waves || a.Cross != b.Cross {
				t.Fatalf("incast %d changed: %+v vs %+v", i, a, b)
			}
			if !timeClose(a.Start, b.Start) || !timeClose(a.Interval, b.Interval) {
				t.Fatalf("incast %d times drifted: %+v vs %+v", i, a, b)
			}
		}
		for i := range p.Shuffles {
			a, b := p.Shuffles[i], p2.Shuffles[i]
			if a.Name != b.Name || a.Workers != b.Workers || len(a.Hosts) != len(b.Hosts) || a.Bytes != b.Bytes {
				t.Fatalf("shuffle %d changed: %+v vs %+v", i, a, b)
			}
			for j := range a.Hosts {
				if a.Hosts[j] != b.Hosts[j] {
					t.Fatalf("shuffle %d placement changed: %v vs %v", i, a.Hosts, b.Hosts)
				}
			}
			if !timeClose(a.Start, b.Start) || !timeClose(a.Stagger, b.Stagger) {
				t.Fatalf("shuffle %d times drifted: %+v vs %+v", i, a, b)
			}
		}
		for i := range p.Tenants {
			a, b := p.Tenants[i], p2.Tenants[i]
			if a.Name != b.Name || a.Workload != b.Workload ||
				a.IntraLoad != b.IntraLoad || a.CrossLoad != b.CrossLoad {
				t.Fatalf("tenant %d changed: %+v vs %+v", i, a, b)
			}
			if !timeClose(a.Start, b.Start) || !timeClose(a.Duration, b.Duration) {
				t.Fatalf("tenant %d times drifted: %+v vs %+v", i, a, b)
			}
		}
	})
}
