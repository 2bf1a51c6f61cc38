package fault

import (
	"fmt"
	"strings"
	"testing"

	"mlcc/internal/sim"
)

// planJSON renders a plan through the canonical encoder.
func planJSON(t testing.TB, p *Plan) string {
	t.Helper()
	var b strings.Builder
	if err := WritePlan(&b, p); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b.String()
}

// surface is a synthetic fault surface: the long-haul fiber, hosts NIC
// cables and one uplink per switch, and every host and switch as a node.
func surface(hosts, switches int) (links, nodes []string) {
	links = []string{"longhaul"}
	for i := 0; i < hosts; i++ {
		links = append(links, fmt.Sprintf("host%d", i))
		nodes = append(nodes, fmt.Sprintf("host%d", i))
	}
	for i := 0; i < switches; i++ {
		links = append(links, fmt.Sprintf("leaf%d:0", i))
		nodes = append(nodes, fmt.Sprintf("leaf%d", i))
	}
	return links, nodes
}

// TestGeneratePlanDeterminism pins the generator contract a fuzzed plan's
// reproducibility rests on: the same (surface, seed, horizon) always yields
// the same valid, non-empty plan, and different seeds actually explore
// different plans (the plan's own Seed field aside).
func TestGeneratePlanDeterminism(t *testing.T) {
	const horizon = 20 * sim.Millisecond
	for _, sz := range []struct{ hosts, switches int }{{4, 2}, {2, 2}, {0, 0}} {
		name := fmt.Sprintf("%dhosts-%dswitches", sz.hosts, sz.switches)
		links, nodes := surface(sz.hosts, sz.switches)
		a := GeneratePlan(links, nodes, 7, horizon)
		if b := GeneratePlan(links, nodes, 7, horizon); planJSON(t, a) != planJSON(t, b) {
			t.Errorf("%s: same seed produced different plans:\n%s\nvs\n%s", name, planJSON(t, a), planJSON(t, b))
		}
		if a.empty() {
			t.Errorf("%s: generated plan is empty", name)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: generated plan invalid: %v", name, err)
		}
		b := GeneratePlan(links, nodes, 8, horizon)
		a.Seed, b.Seed = 0, 0
		if planJSON(t, a) == planJSON(t, b) {
			t.Errorf("%s: seeds 7 and 8 produced identical plans:\n%s", name, planJSON(t, a))
		}
	}
}

// FuzzGeneratePlan hammers the generator across arbitrary (seed, surface,
// horizon) inputs and holds it to the valid-by-construction contract:
//
//   - every generated plan passes Validate, is non-empty and targets only
//     the surface's names,
//   - the plan survives the JSON round-trip byte for byte (the generator
//     works on the microsecond grid precisely so re-encoding loses nothing),
//   - and generation is deterministic — the same inputs give the same bytes,
//     which is what makes a seed a complete repro of its plan.
//
// The generator only reads names, so the surfaces are synthetic: up to 32
// hosts and 8 switches, none at all included. The seed corpus in
// testdata/fuzz/FuzzGeneratePlan adds a 1 µs horizon (clamped internally,
// like the zero one below) and the longest one a uint32 holds.
func FuzzGeneratePlan(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), uint32(30_000))
	f.Add(int64(2), uint8(8), uint8(8), uint32(20_000))
	f.Add(int64(99), uint8(4), uint8(2), uint32(0))
	f.Add(int64(-7), uint8(8), uint8(8), uint32(4_000_000))
	f.Add(int64(3), uint8(0), uint8(0), uint32(5_000))
	f.Fuzz(func(t *testing.T, seed int64, hosts, switches uint8, horizonUS uint32) {
		links, nodes := surface(int(hosts%33), int(switches%9))
		horizon := sim.Time(horizonUS) * sim.Microsecond
		p := GeneratePlan(links, nodes, seed, horizon)
		b1 := planJSON(t, p)
		if err := p.Validate(); err != nil {
			t.Fatalf("generated plan invalid: %v\n%s", err, b1)
		}
		if p.empty() {
			t.Fatal("generated plan is empty: the generator always emits at least one event group")
		}
		isLink, isNode := map[string]bool{}, map[string]bool{"*": true}
		for _, name := range links {
			isLink[name] = true
		}
		for _, name := range nodes {
			isNode[name] = true
		}
		for _, ev := range p.Events {
			if !isLink[ev.Link] {
				t.Fatalf("event targets %q, not a link on the surface", ev.Link)
			}
		}
		for _, r := range p.Loss {
			if !isLink[r.Link] {
				t.Fatalf("loss rule targets %q, not a link on the surface", r.Link)
			}
		}
		for _, r := range p.Feedback {
			if !isNode[r.Host] || (r.Host != "*" && !strings.HasPrefix(r.Host, "host")) {
				t.Fatalf("feedback rule selects %q, not a host on the surface", r.Host)
			}
		}
		for _, ev := range p.Nodes {
			if !isNode[ev.Node] || ev.Node == "*" {
				t.Fatalf("node event targets %q, not a node on the surface", ev.Node)
			}
		}
		p2, err := ReadPlan(strings.NewReader(b1))
		if err != nil {
			t.Fatalf("round-trip decode: %v\n%s", err, b1)
		}
		if b2 := planJSON(t, p2); b1 != b2 {
			t.Fatalf("JSON round-trip not byte-stable:\n%s\nvs\n%s", b1, b2)
		}
		if again := planJSON(t, GeneratePlan(links, nodes, seed, horizon)); again != b1 {
			t.Fatalf("generator not deterministic:\n%s\nvs\n%s", b1, again)
		}
	})
}
