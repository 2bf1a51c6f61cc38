package stats

import (
	"math"
	"testing"

	"mlcc/internal/sim"
)

func tsample(size int64, fct sim.Time) FCTSample {
	return FCTSample{Size: size, FCT: fct}
}

func TestTenantSetOrderAndLookup(t *testing.T) {
	ts := NewTenantSet()
	ts.Add("b", tsample(100, sim.Microsecond))
	ts.Add("a", tsample(100, sim.Microsecond))
	ts.Add("b", tsample(100, sim.Microsecond))
	ts.Add("", tsample(100, sim.Microsecond))

	got := ts.Names()
	want := []string{"b", "a", "untagged"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v (first-add order)", got, want)
		}
	}
	if n := ts.collector("b").Len(); n != 2 {
		t.Errorf("tenant b has %d samples, want 2", n)
	}
	// Unknown tenants resolve to an empty collector, not nil.
	if n := ts.collector("ghost").Len(); n != 0 {
		t.Errorf("unknown tenant collector has %d samples", n)
	}
	if _, ok := ts.AvgFCT("ghost"); ok {
		t.Error("unknown tenant reported an average")
	}
}

// TestTenantSetAsymmetricMix is the two-tenant mix the scenario harness
// produces: a latency-sensitive tenant with many small fast flows next to a
// bulk tenant with few large slow ones. Summaries must stay per-tenant —
// pooled percentiles would let the bulk tail pollute the small tenant.
func TestTenantSetAsymmetricMix(t *testing.T) {
	ts := NewTenantSet()
	for i := 0; i < 99; i++ {
		ts.Add("small", tsample(1_000, 10*sim.Microsecond))
	}
	ts.Add("small", tsample(1_000, 20*sim.Microsecond)) // the p100 straggler
	for i := 0; i < 10; i++ {
		ts.Add("bulk", tsample(10_000_000, 5*sim.Millisecond))
	}

	if p99, ok := ts.Percentile("small", 0.99); !ok || p99 != 10*sim.Microsecond {
		t.Errorf("small p99 = %v ok=%v, want 10µs", p99, ok)
	}
	if p100, ok := ts.Percentile("small", 1.0); !ok || p100 != 20*sim.Microsecond {
		t.Errorf("small p100 = %v ok=%v, want 20µs", p100, ok)
	}
	if avg, ok := ts.AvgFCT("bulk"); !ok || avg != 5*sim.Millisecond {
		t.Errorf("bulk avg = %v ok=%v, want 5ms", avg, ok)
	}
	if got, want := ts.CompletedBytes("small"), int64(100*1_000); got != want {
		t.Errorf("small bytes = %d, want %d", got, want)
	}
	if got, want := ts.CompletedBytes("bulk"), int64(10*10_000_000); got != want {
		t.Errorf("bulk bytes = %d, want %d", got, want)
	}

	// Byte-share Jain index for (1e5, 1e8): heavily unfair, near 1/2 floor.
	fair := ts.Fairness()
	wantFair := JainIndex([]float64{100 * 1_000, 10 * 10_000_000})
	if math.Abs(fair-wantFair) > 1e-12 {
		t.Errorf("Fairness() = %v, want %v", fair, wantFair)
	}
	if fair > 0.51 {
		t.Errorf("Fairness() = %v for a 1000x byte skew, expected near 0.5", fair)
	}
}

func TestTenantSetFairnessEqualShares(t *testing.T) {
	ts := NewTenantSet()
	for _, name := range []string{"t0", "t1", "t2"} {
		ts.Add(name, tsample(5_000, sim.Microsecond))
	}
	if fair := ts.Fairness(); math.Abs(fair-1) > 1e-12 {
		t.Errorf("equal shares Fairness() = %v, want 1", fair)
	}
	// Degenerate cases defined by JainIndex.
	if fair := NewTenantSet().Fairness(); fair != 0 {
		t.Errorf("empty set Fairness() = %v, want 0", fair)
	}
	solo := NewTenantSet()
	solo.Add("only", tsample(1, sim.Microsecond))
	if fair := solo.Fairness(); fair != 1 {
		t.Errorf("single tenant Fairness() = %v, want 1", fair)
	}
}

// TestTenantSetAbortIsolation is the blackout scenario in miniature: one
// tenant's flows are aborted while a neighbor completes cleanly. The victim's
// aborts must not leak into the neighbor's counts, and the victim's own FCT
// summary covers its one completed flow.
func TestTenantSetAbortIsolation(t *testing.T) {
	ts := NewTenantSet()
	for i := 0; i < 4; i++ {
		ts.Abort("victim")
	}
	ts.Add("victim", tsample(2_000, 50*sim.Microsecond))
	for i := 0; i < 3; i++ {
		ts.Add("neighbor", tsample(3_000, 15*sim.Microsecond))
	}

	if got := ts.Aborts("victim"); got != 4 {
		t.Errorf("victim aborts = %d, want 4", got)
	}
	if got := ts.Completed("victim"); got != 1 {
		t.Errorf("victim completed = %d, want 1", got)
	}
	if got := ts.Aborts("neighbor"); got != 0 {
		t.Errorf("neighbor aborts = %d, want 0 (abort leaked across tenants)", got)
	}
	// Victim's FCT stats cover only the one completed flow.
	if avg, ok := ts.AvgFCT("victim"); !ok || avg != 50*sim.Microsecond {
		t.Errorf("victim avg = %v ok=%v, want 50µs over completed flows only", avg, ok)
	}
	if p, ok := ts.Percentile("victim", 0.5); !ok || p != 50*sim.Microsecond {
		t.Errorf("victim p50 = %v ok=%v, want 50µs", p, ok)
	}
	// An aborted flow's bytes never count toward goodput.
	if got, want := ts.CompletedBytes("victim"), int64(2_000); got != want {
		t.Errorf("victim completed bytes = %d, want %d", got, want)
	}
	if got, want := ts.CompletedBytes("neighbor"), int64(9_000); got != want {
		t.Errorf("neighbor bytes = %d, want %d", got, want)
	}
	// All-aborted tenant: no FCT, no bytes, still listed.
	dead := NewTenantSet()
	dead.Abort("dead")
	if names := dead.Names(); len(names) != 1 || names[0] != "dead" {
		t.Errorf("all-aborted set lists %q, want [dead]", names)
	}
	if _, ok := dead.AvgFCT("dead"); ok {
		t.Error("all-aborted tenant reported an FCT average")
	}
	if b := dead.CompletedBytes("dead"); b != 0 {
		t.Errorf("all-aborted tenant bytes = %d, want 0", b)
	}
}

func TestTenantSetString(t *testing.T) {
	ts := NewTenantSet()
	ts.Add("a", tsample(10, sim.Microsecond))
	ts.Abort("b")
	s := ts.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	for _, want := range []string{"a{done=1", "b{done=0 aborted=1"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
