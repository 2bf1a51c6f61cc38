package main

import (
	"strings"
	"testing"

	"mlcc"
	"mlcc/internal/fault"
	"mlcc/internal/topo"
)

// TestFailureGate holds the one failure gate (topo.Summary.Failures, which
// mlcc.Result embeds) to its contract under both abort policies: mlccsim
// expects aborts only when the run applies a fault plan (faulted), a figure
// cell when it declares abortsExpected. Open books and a guard stall fail
// under either.
func TestFailureGate(t *testing.T) {
	scenario := func(kind string) mlcc.Config {
		c, err := mlcc.Config{HostsPerLeaf: 2, Seed: 1}.WithScenario(kind)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	spacedc, collective := scenario("spacedc"), scenario("collective")
	if spacedc.Fault == nil || len(spacedc.Fault.Events) == 0 || collective.Fault != nil {
		t.Fatal("spacedc no longer carries long-haul fault events, or collective gained some")
	}
	bare := faulted(mlcc.Config{})
	cases := []struct {
		name           string
		sum            topo.Summary
		abortsExpected bool
		want           []string // one substring per failure, in order
	}{
		{"clean", topo.Summary{Flows: 4, Done: 4}, bare, nil},
		{"audit problem", topo.Summary{AuditProblems: []string{"link longhaul: 3 frames unaccounted", "flow 2: over-delivered"}}, bare,
			[]string{"conservation: link longhaul: 3 frames unaccounted", "conservation: flow 2: over-delivered"}},
		{"stall", topo.Summary{Stalled: true, StallReason: "no progress for 12ms"}, bare,
			[]string{"guard stall aborted the run: no progress for 12ms"}},
		{"abort with no fault plan", topo.Summary{Flows: 4, Done: 2, Aborted: 2}, bare, []string{"2 flow(s) aborted"}},
		{"abort under a traffic-only scenario", topo.Summary{Aborted: 1}, faulted(collective),
			[]string{"1 flow(s) aborted"}},
		{"abort under spacedc's long-haul outage", topo.Summary{Aborted: 2}, faulted(spacedc), nil},
		{"abort under a fault plan", topo.Summary{Aborted: 2}, faulted(mlcc.Config{Fault: &fault.Plan{}}), nil},
		{"abort in an abortsExpected cell", topo.Summary{Flows: 4, Done: 2, Aborted: 2}, true, nil},
		{"expected aborts do not excuse open books or a stall",
			topo.Summary{Aborted: 2, AuditProblems: []string{"pool leak"}, Stalled: true, StallReason: "wedged"},
			faulted(spacedc), []string{"conservation: pool leak", "guard stall aborted the run: wedged"}},
	}
	for _, tc := range cases {
		got := tc.sum.Failures(tc.abortsExpected)
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
