package exp

import (
	"fmt"
	"testing"

	scen "mlcc/internal/scenario"
)

// TestShardDigestScenario extends shard parity to closed-loop scenarios: for
// every canonical kind, a sharded run must produce a byte-identical digest —
// per-flow completion records AND collective barrier outcomes — to the
// single-engine run, with clean conservation books on both layouts. This is
// the acceptance gate for the scenario subsystem's shard-safety story: the
// barrier poll decides and launches phases only at quiescent boundaries, so
// phase launch times and flow IDs must be pure functions of the plan.
func TestShardDigestScenario(t *testing.T) {
	for _, kind := range scen.Kinds() {
		for _, alg := range shardTestAlgs(t) {
			kind, alg := kind, alg
			t.Run(fmt.Sprintf("%s/%s", kind, alg), func(t *testing.T) {
				t.Parallel()
				single, probs1, err := scenarioDigest(kind, alg, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				sharded, probs2, err := scenarioDigest(kind, alg, 1, 2)
				if err != nil {
					t.Fatal(err)
				}
				if single != sharded {
					t.Errorf("shards=2 digest %#016x != shards=1 digest %#016x", sharded, single)
				}
				if len(probs1) != 0 || len(probs2) != 0 {
					t.Errorf("audit problems: shards=1 %v, shards=2 %v", probs1, probs2)
				}
			})
		}
	}
}

// TestScenarioFigure runs the full matrix at Quick scale and pins the
// acceptance shape of every kind's table.
func TestScenarioFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("full 4-kind × 5-algorithm sweep")
	}
	e, ok := Lookup("scenario")
	if !ok {
		t.Fatal("scenario experiment not registered")
	}
	rep, err := e.Run(Config{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 4 {
		t.Fatalf("tables = %d, want 4", len(rep.Tables))
	}
	if len(rep.Failures) != 0 {
		t.Errorf("failures (audit problems, stalls, aborts) %v", rep.Failures)
	}
	if len(rep.Manifests) != 4*len(allAlgs) {
		t.Errorf("manifests = %d, want %d", len(rep.Manifests), 4*len(allAlgs))
	}

	table := func(kind string) *Table {
		for _, tbl := range rep.Tables {
			if tbl.title == scenarioFig.cell(kind).title {
				return tbl
			}
		}
		t.Fatalf("no table for scenario kind %q", kind)
		return nil
	}
	collTbl, incastTbl, tenantTbl, spaceTbl := table("collective"), table("incast"), table("tenants"), table("spacedc")
	for _, alg := range allAlgs {
		// Every algorithm must carry the ring through all 4 barrier phases.
		if v, ok := collTbl.Get(alg, "phasesDone"); !ok || v != 4 {
			t.Errorf("%s: collective phasesDone = %v", alg, v)
		}
		if v, _ := collTbl.Get(alg, "aborted"); v != 0 {
			t.Errorf("%s: collective aborted = %v", alg, v)
		}
		if v, _ := collTbl.Get(alg, "finishMs"); v <= 0 || v > 100 {
			t.Errorf("%s: collective finishMs = %v", alg, v)
		}
		// Incast and tenant mixes are fault-free: everything completes.
		if v, _ := incastTbl.Get(alg, "done"); v <= 0 {
			t.Errorf("%s: incast done = %v", alg, v)
		}
		if v, _ := incastTbl.Get(alg, "burstP99us"); v <= 0 {
			t.Errorf("%s: burst p99 = %v", alg, v)
		}
		if v, _ := tenantTbl.Get(alg, "fairness"); v <= 0 || v > 1 {
			t.Errorf("%s: fairness = %v outside (0,1]", alg, v)
		}
		if v, _ := tenantTbl.Get(alg, "aborted"); v != 0 {
			t.Errorf("%s: tenant aborted = %v", alg, v)
		}
		// The space-DC relay ring must survive the 3 ms outage and finish
		// both phases; its bulk tenant rides a 100 ms haul, so cross FCTs
		// cannot beat the one-way latency.
		if v, ok := spaceTbl.Get(alg, "phasesDone"); !ok || v != 2 {
			t.Errorf("%s: spacedc phasesDone = %v", alg, v)
		}
		if v, _ := spaceTbl.Get(alg, "bulkAvgMs"); v <= 100 {
			t.Errorf("%s: spacedc bulk avg %v ms beat the 100 ms haul", alg, v)
		}
	}
}

// TestSpaceDCDigests pins the spacedc cell's digest per algorithm at seed 1
// on one engine and on two: the 100 ms haul, jitter and outage reach the
// run through spec.Config (WithScenario), and must reproduce the schedule
// they gave when the scenario plan itself carried them.
func TestSpaceDCDigests(t *testing.T) {
	want := map[string]uint64{
		"mlcc":     0x3bf453b572485334,
		"dcqcn":    0x7ccbbb35f9bc6df1,
		"timely":   0x2a0f9ae0573c63e3,
		"hpcc":     0x2a0f9ae0573c63e3,
		"powertcp": 0x2a0f9ae0573c63e3,
	}
	for alg, w := range want {
		for _, shards := range []int{1, 2} {
			got, _, err := scenarioDigest("spacedc", alg, 1, shards)
			if err != nil {
				t.Fatal(err)
			}
			if got != w {
				t.Errorf("%s shards=%d: digest %#016x, want %#016x", alg, shards, got, w)
			}
		}
	}
}

// TestScenarioDigestDeterminism pins that the digest is a pure function of
// (kind, alg, seed) — two identical invocations must agree bit for bit.
func TestScenarioDigestDeterminism(t *testing.T) {
	a, _, err := scenarioDigest("collective", "mlcc", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := scenarioDigest("collective", "mlcc", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("digest not deterministic: %#016x vs %#016x", a, b)
	}
	c, _, err := scenarioDigest("collective", "mlcc", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("seed does not enter the digest")
	}
}

// scenarioDigest folds one canonical scenario run — per-flow completion
// records plus every collective's end state — into a determinism digest, and
// returns the conservation ledger's problem list. The shard-parity tests pin
// digest(shards=1) == digest(shards=2) for every kind: the closed-loop
// barrier machinery must not perturb the event schedule on any shard layout.
func scenarioDigest(kind, alg string, seed int64, shards int) (uint64, []string, error) {
	c := scenarioFig.cell(kind)
	if c == nil {
		return 0, nil, fmt.Errorf("exp: unknown scenario kind %q (have %v)", kind, scen.Kinds())
	}
	o, err := c.run(alg, Config{Scale: Quick, Seed: seed, Shards: shards})
	if err != nil {
		return 0, nil, err
	}
	d := foldRun(o.n)
	for _, cs := range o.runner.Statuses() {
		d.Add(uint64(cs.PhasesDone))
		bits := uint64(0)
		if cs.Finished {
			bits |= 1
		}
		if cs.Failed {
			bits |= 2
		}
		d.Add(bits)
		d.Add(uint64(cs.FinishedAt))
	}
	return d.Sum(), o.sum.AuditProblems, nil
}
