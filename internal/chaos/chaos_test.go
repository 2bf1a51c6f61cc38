package chaos

import (
	"strings"
	"testing"

	"mlcc/internal/fault"
	"mlcc/internal/sim"
)

// planJSON renders a plan through the canonical encoder.
func planJSON(t testing.TB, p *fault.Plan) string {
	t.Helper()
	var b strings.Builder
	if err := fault.WritePlan(&b, p); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b.String()
}

// TestChaosPlanDeterminism pins the generator contract a chaos input's
// reproducibility rests on: the same (topology, seed, horizon) always yields
// the same plan, and different seeds actually explore different plans.
func TestChaosPlanDeterminism(t *testing.T) {
	const horizon = 20 * sim.Millisecond
	for _, tp := range Topos() {
		a := GeneratePlan(tp, 7, horizon)
		b := GeneratePlan(tp, 7, horizon)
		if planJSON(t, a) != planJSON(t, b) {
			t.Errorf("%s: same seed produced different plans:\n%s\nvs\n%s", tp.Name, planJSON(t, a), planJSON(t, b))
		}
		if planJSON(t, a) == planJSON(t, GeneratePlan(tp, 8, horizon)) {
			t.Errorf("%s: seeds 7 and 8 produced identical plans", tp.Name)
		}
		if a.Empty() {
			t.Errorf("%s: generated plan is empty", tp.Name)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: generated plan invalid: %v", tp.Name, err)
		}
	}
}
