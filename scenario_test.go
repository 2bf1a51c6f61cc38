package mlcc

import (
	"testing"

	"mlcc/internal/fault"
	"mlcc/internal/scenario"
	"mlcc/internal/workload"
)

// withScenario returns c.WithScenario(kind), failing the test on an error.
func withScenario(t *testing.T, c Config, kind string) Config {
	t.Helper()
	r, err := c.WithScenario(kind)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// collectivePlan is the canonical collective acceptance plan sized for the
// 16-host topology the scenario tests run on (HostsPerLeaf=2).
func collectivePlan(t *testing.T, seed int64) *scenario.Plan {
	t.Helper()
	return withScenario(t, Config{HostsPerLeaf: 2, Seed: seed}, "collective").Scenario
}

func TestRunScenarioCollective(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	res, err := Run(Config{
		Algorithm:    "mlcc",
		Scenario:     collectivePlan(t, 3),
		HostsPerLeaf: 2,
		Deadline:     100 * Millisecond,
		Audit:        true,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Collectives) != 1 {
		t.Fatalf("collectives: %+v", res.Collectives)
	}
	cs := res.Collectives[0]
	if cs.Name != "ring" || !cs.Finished || cs.Failed || cs.PhasesDone != 4 {
		t.Fatalf("collective did not settle cleanly: %+v", cs)
	}
	if cs.FinishedAt <= 0 || cs.FinishedAt > 100*Millisecond {
		t.Fatalf("FinishedAt = %v", cs.FinishedAt)
	}
	// 4 phases × 8 ring flows ride on top of the open-loop background trace.
	if want := len(res.Trace) + 32; res.Flows != want {
		t.Fatalf("flows = %d, want %d (open loop %d + 32 ring)", res.Flows, want, len(res.Trace))
	}
	if res.Tenants == nil {
		t.Fatal("scenario run returned no tenant stats")
	}
	if got := res.Tenants.CompletedBytes("ring"); got != 32*64<<10 {
		t.Fatalf("ring bytes = %d, want %d", got, 32*64<<10)
	}
	if res.Tenants.Completed("bg") == 0 {
		t.Fatal("background tenant completed nothing")
	}
	if res.Audit == "" {
		t.Fatal("audit summary empty")
	}
}

// TestRunScenarioShardInvariant exercises the public API's promise that
// sharding never changes results, closed-loop collectives included.
func TestRunScenarioShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	run := func(shards int) *Result {
		res, err := Run(Config{
			Scenario:     collectivePlan(t, 7),
			HostsPerLeaf: 2,
			Deadline:     100 * Millisecond,
			Shards:       shards,
			Seed:         7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(2)
	if a.Flows != b.Flows || a.AvgFCT != b.AvgFCT || a.Done != b.Done {
		t.Fatalf("sharded scenario diverged: %d/%v vs %d/%v", a.Flows, a.AvgFCT, b.Flows, b.AvgFCT)
	}
	if len(a.Collectives) != len(b.Collectives) || a.Collectives[0].FinishedAt != b.Collectives[0].FinishedAt {
		t.Fatalf("collective timing diverged: %+v vs %+v", a.Collectives, b.Collectives)
	}
}

// TestRunScenarioProfileLongHaul proves spacedc's long-haul profile
// reshapes the haul and that an explicit LongHaulDelay wins over it:
// spacedc's cross-DC tenant cannot beat its 100 ms one-way haul, and under
// an explicit 10 ms haul it cannot beat 10 ms but does beat 100 ms.
func TestRunScenarioProfileLongHaul(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for _, haul := range []Time{0, 10 * Millisecond} {
		cfg := withScenario(t, Config{HostsPerLeaf: 2, LongHaulDelay: haul, Seed: 5}, "spacedc")
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Tenants.Completed("bulk"); got == 0 {
			t.Fatalf("long haul %v: the bulk tenant completed nothing", haul)
		}
		avg, _ := res.Tenants.AvgFCT("bulk")
		want := cfg.LongHaulDelay
		if avg <= want || (haul != 0 && avg >= 100*Millisecond) {
			t.Errorf("long haul %v: bulk cross FCT %v, want above the %v haul (and below spacedc's 100ms when explicit)", haul, avg, want)
		}
	}
}

func TestRunScenarioValidation(t *testing.T) {
	plan := &scenario.Plan{
		Name:    "x",
		Tenants: []scenario.Tenant{{Name: "t", Workload: "websearch", IntraLoad: 0.1, Duration: Millisecond}},
	}
	if _, err := Run(Config{Scenario: plan, Flows: []workload.FlowSpec{{Dst: 1, Size: 1}}}); err == nil {
		t.Fatal("Scenario+Flows accepted")
	}
	if _, err := Run(Config{Scenario: &scenario.Plan{Name: "empty"}}); err == nil {
		t.Fatal("empty plan accepted")
	}
	bad := &scenario.Plan{
		Name:        "oob",
		Collectives: []scenario.Collective{{Name: "c", Hosts: []int{0, 999}, Tensor: 1, Phases: 1}},
	}
	if _, err := Run(Config{Scenario: bad, HostsPerLeaf: 2}); err == nil {
		t.Fatal("out-of-range placement accepted")
	}
}

// TestRunScenarioProfileKeepsNodeFaults: WithScenario("spacedc") appends
// its long-haul fault events (jitter plus an outage) to Config.Fault
// instead of replacing it — the user's host crash still fires, and so does
// the outage.
func TestRunScenarioProfileKeepsNodeFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := withScenario(t, Config{
		HostsPerLeaf: 2,
		Seed:         1,
		Fault: &fault.Plan{Nodes: []fault.NodeEvent{
			{At: Millisecond, Node: "host1", Action: fault.HostCrash},
			{At: 2 * Millisecond, Node: "host1", Action: fault.HostRestart},
		}},
	}, "spacedc")
	cfg.Telemetry = NewTelemetry(TelemetryOptions{Metrics: true})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || res.Restarts != 1 {
		t.Fatalf("node crashes/restarts = %d/%d, want 1/1: spacedc's long haul dropped Config.Fault.Nodes",
			res.Crashes, res.Restarts)
	}
	if v, ok := cfg.Telemetry.Registry().Value("fault.link.longhaul.drops"); !ok || v == 0 {
		t.Errorf("fault.link.longhaul.drops = (%v, %v): spacedc's long-haul outage destroyed no frame", v, ok)
	}
}
