package fault

import (
	"bytes"
	"testing"

	"mlcc/internal/sim"
)

// FuzzFaultPlanJSON hammers ReadPlan with arbitrary bytes: it must reject or
// accept, never panic — and every plan it accepts must satisfy Validate and
// survive WritePlan→ReadPlan with all fields intact (times within the float64
// microsecond precision the JSON schema carries); where that precision is
// exact, writing the re-read plan must reproduce the first write byte for
// byte. The interesting inputs are the ones that used to slip through: NaN
// rate factors and probabilities, and at_us values whose float→int64
// conversion is implementation-defined.
func FuzzFaultPlanJSON(f *testing.F) {
	f.Add([]byte(`{"seed":7,"events":[{"at_us":8000,"link":"longhaul","action":"down"},{"at_us":10000,"link":"longhaul","action":"up"}]}`))
	f.Add([]byte(`{"events":[{"at_us":20000,"link":"longhaul","action":"degrade","rate_factor":0.5,"extra_delay_us":500,"jitter_us":20}]}`))
	f.Add([]byte(`{"loss":[{"link":"longhaul","prob":0.001,"start_us":0,"end_us":0}]}`))
	f.Add([]byte(`{"events":[{"at_us":9.3e18,"link":"l","action":"down"}]}`))
	f.Add([]byte(`{"loss":[{"link":"l","prob":"NaN"}]}`))
	f.Add([]byte(`{"feedback":[{"host":"*","kinds":["ack","cnp"],"drop":0.3,"delay_us":100,"jitter_us":50,"corrupt":0.1,"modes":["truncate","stale_ts"],"start_us":5000,"end_us":10000}]}`))
	f.Add([]byte(`{"feedback":[{"host":"host0","drop":1}]}`))
	f.Add([]byte(`{"feedback":[{"host":"hostX","drop":0.5}]}`))
	f.Add([]byte(`{"nodes":[{"at_us":3000,"node":"host0","action":"crash"},{"at_us":6000,"node":"host0","action":"restart"}]}`))
	f.Add([]byte(`{"nodes":[{"at_us":8000,"node":"dci0","action":"fail"},{"at_us":9000,"node":"dci0","action":"recover"}]}`))
	f.Add([]byte(`{"nodes":[{"at_us":1,"node":"leaf3","action":"reboot"}]}`))
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
		if err := WritePlan(&buf, p); err != nil {
			t.Fatalf("WritePlan: %v", err)
		}
		p2, err := ReadPlan(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected its own output: %v\n%s", err, buf.Bytes())
		}
		if p2.Seed != p.Seed || len(p2.Events) != len(p.Events) || len(p2.Loss) != len(p.Loss) ||
			len(p2.Feedback) != len(p.Feedback) || len(p2.Nodes) != len(p.Nodes) {
			t.Fatalf("round trip changed shape: %+v vs %+v", p, p2)
		}
		// Microsecond fields pass through float64: exact below ~2^51 ps,
		// a bounded rounding error near the int64 clock's rim.
		exact := true
		timeClose := func(a, b sim.Time) bool {
			if a >= 1<<51 {
				exact = false
			}
			d := a - b
			if d < 0 {
				d = -d
			}
			return d <= sim.Nanosecond+a/(1<<40)
		}
		for i := range p.Events {
			a, b := p.Events[i], p2.Events[i]
			if a.Link != b.Link || a.Action != b.Action || a.RateFactor != b.RateFactor {
				t.Fatalf("event %d changed in round trip: %+v vs %+v", i, a, b)
			}
			if !timeClose(a.At, b.At) || !timeClose(a.ExtraDelay, b.ExtraDelay) || !timeClose(a.Jitter, b.Jitter) {
				t.Fatalf("event %d times drifted: %+v vs %+v", i, a, b)
			}
		}
		for i := range p.Loss {
			a, b := p.Loss[i], p2.Loss[i]
			if a.Link != b.Link || a.Prob != b.Prob {
				t.Fatalf("loss rule %d changed in round trip: %+v vs %+v", i, a, b)
			}
			if !timeClose(a.Start, b.Start) || !timeClose(a.End, b.End) {
				t.Fatalf("loss rule %d window drifted: %+v vs %+v", i, a, b)
			}
		}
		for i := range p.Nodes {
			a, b := p.Nodes[i], p2.Nodes[i]
			if a.Node != b.Node || a.Action != b.Action {
				t.Fatalf("node event %d changed in round trip: %+v vs %+v", i, a, b)
			}
			if !timeClose(a.At, b.At) {
				t.Fatalf("node event %d time drifted: %+v vs %+v", i, a, b)
			}
		}
		for i := range p.Feedback {
			a, b := p.Feedback[i], p2.Feedback[i]
			if a.Host != b.Host || a.Drop != b.Drop || a.Corrupt != b.Corrupt ||
				a.Kinds != b.Kinds || a.Modes != b.Modes {
				t.Fatalf("feedback rule %d changed in round trip: %+v vs %+v", i, a, b)
			}
			if !timeClose(a.Delay, b.Delay) || !timeClose(a.Jitter, b.Jitter) ||
				!timeClose(a.Start, b.Start) || !timeClose(a.End, b.End) {
				t.Fatalf("feedback rule %d times drifted: %+v vs %+v", i, a, b)
			}
		}
		var buf2 bytes.Buffer
		if err := WritePlan(&buf2, p2); err != nil {
			t.Fatalf("WritePlan of the re-read plan: %v", err)
		}
		if exact && !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("second write differs:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
		}
	})
}
