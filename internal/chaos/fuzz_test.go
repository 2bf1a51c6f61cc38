package chaos

import (
	"strings"
	"testing"

	"mlcc/internal/fault"
	"mlcc/internal/sim"
)

// FuzzChaosPlan hammers the generator across arbitrary (seed, topology,
// horizon) inputs and holds it to the valid-by-construction contract:
//
//   - every generated plan passes fault.Validate and is non-empty,
//   - the plan survives the JSON round-trip byte for byte (the generator
//     works on the microsecond grid precisely so re-encoding loses nothing),
//   - and generation is deterministic — the same inputs give the same bytes,
//     which is what makes a chaos input's seed a complete repro.
//
// The seed corpus in testdata/fuzz/FuzzChaosPlan covers both topologies, a
// zero horizon (clamped internally), and a multi-second one; `make check`
// runs a short fuzz pass over it.
func FuzzChaosPlan(f *testing.F) {
	f.Add(int64(1), true, uint32(30_000))
	f.Add(int64(2), false, uint32(20_000))
	f.Add(int64(99), true, uint32(0))
	f.Add(int64(-7), false, uint32(4_000_000))
	f.Fuzz(func(t *testing.T, seed int64, dumbbell bool, horizonUS uint32) {
		tp := TwoDCTopo()
		if dumbbell {
			tp = DumbbellTopo()
		}
		horizon := sim.Time(horizonUS) * sim.Microsecond
		p := GeneratePlan(tp, seed, horizon)
		b1 := planJSON(t, p)
		if err := p.Validate(); err != nil {
			t.Fatalf("generated plan invalid: %v\n%s", err, b1)
		}
		if p.Empty() {
			t.Fatal("generated plan is empty: the generator always emits at least one event group")
		}
		p2, err := fault.ReadPlan(strings.NewReader(b1))
		if err != nil {
			t.Fatalf("round-trip decode: %v\n%s", err, b1)
		}
		if b2 := planJSON(t, p2); b1 != b2 {
			t.Fatalf("JSON round-trip not byte-stable:\n%s\nvs\n%s", b1, b2)
		}
		if again := planJSON(t, GeneratePlan(tp, seed, horizon)); again != b1 {
			t.Fatalf("generator not deterministic:\n%s\nvs\n%s", b1, again)
		}
	})
}
