package main

import (
	"strings"
	"testing"

	"mlcc"
)

// TestFailureGate holds the one failure gate (mlcc.Result.Failures, which is
// topo.Summary.Failures) to its contract under both abort policies: mlccsim
// expects aborts only when the run applies a fault plan (faulted), a figure
// cell when it declares abortsExpected. Open books and a guard stall fail
// under either.
func TestFailureGate(t *testing.T) {
	scenario := func(kind string) *mlcc.ScenarioPlan {
		p, err := mlcc.CanonicalScenario(kind, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	spacedc, collective := scenario("spacedc"), scenario("collective")
	if spacedc.Profile == nil || len(spacedc.Profile.Outages) == 0 || collective.Profile != nil {
		t.Fatal("spacedc no longer has a profile with outages, or collective gained one")
	}
	bare := faulted(mlcc.Config{})
	cases := []struct {
		name           string
		res            mlcc.Result
		abortsExpected bool
		want           []string // one substring per failure, in order
	}{
		{"clean", mlcc.Result{Flows: 4, Completed: 4}, bare, nil},
		{"audit problem", mlcc.Result{AuditProblems: []string{"link longhaul: 3 frames unaccounted", "flow 2: over-delivered"}}, bare,
			[]string{"conservation: link longhaul: 3 frames unaccounted", "conservation: flow 2: over-delivered"}},
		{"stall", mlcc.Result{Stalled: true, StallReason: "no progress for 12ms"}, bare,
			[]string{"guard stall aborted the run: no progress for 12ms"}},
		{"abort with no fault plan", mlcc.Result{Flows: 4, Completed: 2, Aborted: 2}, bare, []string{"2 flow(s) aborted"}},
		{"abort under a scenario without a profile", mlcc.Result{Aborted: 1}, faulted(mlcc.Config{Scenario: collective}),
			[]string{"1 flow(s) aborted"}},
		{"abort under a plan synthesised from a scenario profile", mlcc.Result{Aborted: 2},
			faulted(mlcc.Config{Scenario: spacedc}), nil},
		{"abort under a fault plan", mlcc.Result{Aborted: 2}, faulted(mlcc.Config{Fault: &mlcc.FaultPlan{}}), nil},
		{"abort in an abortsExpected cell", mlcc.Result{Flows: 4, Completed: 2, Aborted: 2}, true, nil},
		{"expected aborts do not excuse open books or a stall",
			mlcc.Result{Aborted: 2, AuditProblems: []string{"pool leak"}, Stalled: true, StallReason: "wedged"},
			faulted(mlcc.Config{Scenario: spacedc}), []string{"conservation: pool leak", "guard stall aborted the run: wedged"}},
	}
	for _, tc := range cases {
		got := tc.res.Failures(tc.abortsExpected)
		if len(got) != len(tc.want) {
			t.Errorf("%s: failures = %q, want %d", tc.name, got, len(tc.want))
			continue
		}
		for i, want := range tc.want {
			if !strings.Contains(got[i], want) {
				t.Errorf("%s: failure %d = %q, want substring %q", tc.name, i, got[i], want)
			}
		}
	}
}
