package scenario

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"mlcc/internal/sim"
)

const examplePlan = `{
  "seed": 7,
  "name": "mixed",
  "poll_us": 100,
  "collectives": [
    {"name": "ring", "workers": 8, "tensor_bytes": 65536,
     "phases": 4, "start_us": 0, "gap_us": 5}
  ],
  "incasts": [
    {"name": "burst", "dst": 0, "fan_in": 3, "bytes": 65536,
     "start_us": 0, "waves": 2, "interval_us": 500}
  ],
  "shuffles": [
    {"name": "shuffle", "workers": 8, "bytes": 32768,
     "start_us": 1000, "stagger_us": 10}
  ],
  "tenants": [
    {"name": "web", "workload": "websearch", "intra_load": 0.3,
     "cross_load": 0.1, "duration_us": 2000}
  ]
}`

func TestReadPlanExample(t *testing.T) {
	p, err := ReadPlan(strings.NewReader(examplePlan))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Name != "mixed" || p.Poll != 100*sim.Microsecond {
		t.Errorf("header: %+v", p)
	}
	if len(p.Collectives) != 1 || len(p.Incasts) != 1 || len(p.Shuffles) != 1 || len(p.Tenants) != 1 {
		t.Fatalf("shape: %+v", p)
	}
	c := p.Collectives[0]
	if c.Name != "ring" || c.Workers != 8 || c.Tensor != 65536 || c.Phases != 4 || c.Gap != 5*sim.Microsecond {
		t.Errorf("collective: %+v", c)
	}
	in := p.Incasts[0]
	if in.FanIn != 3 || in.Waves != 2 || in.Interval != 500*sim.Microsecond || in.Cross {
		t.Errorf("incast: %+v", in)
	}
	tn := p.Tenants[0]
	if tn.Workload != "websearch" || tn.IntraLoad != 0.3 || tn.Duration != 2*sim.Millisecond {
		t.Errorf("tenant: %+v", tn)
	}
}

// TestWritePlanByteStable: Write→Read→Write must emit byte-identical JSON —
// the stability property the fuzz target leans on and the experiment
// manifests require for reproducible artifact directories.
func TestWritePlanByteStable(t *testing.T) {
	plans := []*Plan{}
	for _, kind := range Kinds() {
		p, err := CanonicalPlan(kind, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	if p, err := ReadPlan(strings.NewReader(examplePlan)); err == nil {
		plans = append(plans, p)
	} else {
		t.Fatal(err)
	}
	for _, p := range plans {
		var a bytes.Buffer
		if err := writePlan(&a, p); err != nil {
			t.Fatal(err)
		}
		p2, err := ReadPlan(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("%s: round trip rejected own output: %v\n%s", p.Name, err, a.Bytes())
		}
		var b bytes.Buffer
		if err := writePlan(&b, p2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: second write differs:\n%s\nvs\n%s", p.Name, a.Bytes(), b.Bytes())
		}
	}
}

func TestReadPlanRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"bogus": 1}`,
		"unknown component": `{"collectivez": []}`,
		"not json":          `ring: 8 workers`,
		"negative time":     `{"tenants":[{"name":"t","workload":"websearch","duration_us":-5}]}`,
		"huge time":         `{"incasts":[{"name":"i","dst":0,"fan_in":1,"bytes":1,"waves":1,"start_us":9.3e18}]}`,
		"invalid plan":      `{"incasts":[{"name":"i","dst":0,"fan_in":0,"bytes":1,"waves":1}]}`,
		"bad workload":      `{"tenants":[{"name":"t","workload":"nope","duration_us":1}]}`,
	}
	for name, in := range cases {
		if _, err := ReadPlan(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestReadPlanExplicitHosts(t *testing.T) {
	in := `{"shuffles":[{"name":"s","hosts":[0,4,2,6],"bytes":1024}]}`
	p, err := ReadPlan(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s := p.Shuffles[0]
	if s.workerCount() != 4 || s.Hosts[1] != 4 {
		t.Errorf("shuffle: %+v", s)
	}
	var buf bytes.Buffer
	if err := writePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"hosts"`) {
		t.Errorf("explicit hosts did not round trip:\n%s", buf.String())
	}
}

// writePlan emits the plan in the JSON schema ReadPlan accepts.
func writePlan(w io.Writer, p *Plan) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}
