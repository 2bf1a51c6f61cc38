package scenario

import (
	"strings"
	"testing"

	"mlcc/internal/sim"
)

// validPlan is a minimal plan that passes Validate; tests mutate copies.
func validPlan() *Plan {
	return &Plan{
		Seed: 1,
		Name: "test",
		Collectives: []Collective{
			{Name: "ring", Workers: 4, Tensor: 1 << 20, Phases: 2, Gap: 5 * sim.Microsecond},
		},
		Incasts: []Incast{
			{Name: "burst", Dst: 0, FanIn: 3, Bytes: 64 << 10, Waves: 1},
		},
		Shuffles: []Shuffle{
			{Name: "shuffle", Workers: 4, Bytes: 32 << 10},
		},
		Tenants: []Tenant{
			{Name: "web", Workload: "websearch", IntraLoad: 0.3, Duration: sim.Millisecond},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validPlan().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Plan){
		"no components":         func(p *Plan) { p.Collectives, p.Incasts, p.Shuffles, p.Tenants = nil, nil, nil, nil },
		"negative poll":         func(p *Plan) { p.Poll = -1 },
		"empty name":            func(p *Plan) { p.Incasts[0].Name = "" },
		"duplicate name":        func(p *Plan) { p.Incasts[0].Name = "ring" },
		"one worker":            func(p *Plan) { p.Collectives[0].Workers = 1 },
		"workers vs hosts":      func(p *Plan) { p.Collectives[0].Hosts = []int{0, 1, 2} },
		"duplicate host":        func(p *Plan) { p.Collectives[0].Workers = 0; p.Collectives[0].Hosts = []int{0, 1, 1} },
		"negative host":         func(p *Plan) { p.Collectives[0].Workers = 0; p.Collectives[0].Hosts = []int{-1, 1} },
		"zero tensor":           func(p *Plan) { p.Collectives[0].Tensor = 0 },
		"zero phases":           func(p *Plan) { p.Collectives[0].Phases = 0 },
		"negative start":        func(p *Plan) { p.Collectives[0].Start = -1 },
		"multi-phase zero gap":  func(p *Plan) { p.Collectives[0].Gap = 0 },
		"zero fan-in":           func(p *Plan) { p.Incasts[0].FanIn = 0 },
		"negative incast dst":   func(p *Plan) { p.Incasts[0].Dst = -1 },
		"zero incast bytes":     func(p *Plan) { p.Incasts[0].Bytes = 0 },
		"zero waves":            func(p *Plan) { p.Incasts[0].Waves = 0 },
		"multi-wave zero gap":   func(p *Plan) { p.Incasts[0].Waves = 2 },
		"zero shuffle bytes":    func(p *Plan) { p.Shuffles[0].Bytes = 0 },
		"negative stagger":      func(p *Plan) { p.Shuffles[0].Stagger = -1 },
		"unknown workload":      func(p *Plan) { p.Tenants[0].Workload = "nope" },
		"negative load":         func(p *Plan) { p.Tenants[0].IntraLoad = -0.5 },
		"zero tenant duration":  func(p *Plan) { p.Tenants[0].Duration = 0 },
		"negative tenant start": func(p *Plan) { p.Tenants[0].Start = -1 },
	}
	for name, mutate := range cases {
		p := validPlan()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCanonicalPlans(t *testing.T) {
	for _, kind := range Kinds() {
		p, err := CanonicalPlan(kind, 8, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: canonical plan fails validation: %v", kind, err)
		}
		if p.Name != kind {
			t.Errorf("%s: plan named %q", kind, p.Name)
		}
		if len(p.Components()) == 0 {
			t.Errorf("%s: no components", kind)
		}
	}
	if _, err := CanonicalPlan("nope", 8, 1); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := CanonicalPlan("incast", 7, 1); err == nil {
		t.Error("odd host count accepted")
	}
}

func TestHorizon(t *testing.T) {
	p := &Plan{
		Collectives: []Collective{{Name: "c", Workers: 2, Tensor: 1, Phases: 3, Start: 10 * sim.Microsecond, Gap: 5 * sim.Microsecond}},
		Incasts:     []Incast{{Name: "i", FanIn: 1, Bytes: 1, Waves: 4, Start: 0, Interval: 100 * sim.Microsecond}},
		Tenants:     []Tenant{{Name: "t", Workload: "websearch", Start: 50 * sim.Microsecond, Duration: 200 * sim.Microsecond}},
	}
	// incast: 0 + 3*100 = 300µs beats collective 10+2*5=20µs and tenant 250µs.
	if got, want := p.Horizon(), 300*sim.Microsecond; got != want {
		t.Errorf("Horizon() = %v, want %v", got, want)
	}
	if got := p.MaxPhases(); got != 3 {
		t.Errorf("MaxPhases() = %d, want 3", got)
	}
}

func TestSubSeedStable(t *testing.T) {
	p := &Plan{Seed: 42}
	if p.subSeed("web") != p.subSeed("web") {
		t.Error("SubSeed not deterministic")
	}
	if p.subSeed("web") == p.subSeed("batch") {
		t.Error("distinct tenants collided")
	}
	q := &Plan{Seed: 43}
	if p.subSeed("web") == q.subSeed("web") {
		t.Error("plan seed does not enter the sub-seed")
	}
}

func TestValidateErrorsMentionComponent(t *testing.T) {
	p := validPlan()
	p.Collectives[0].Tensor = -1
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "ring") {
		t.Errorf("error %v does not name the offending component", err)
	}
}
