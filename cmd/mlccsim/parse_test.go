package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mlcc"
	"mlcc/internal/fault"
)

// parseArgs runs parse on a fresh flag set, as main does on the command line.
func parseArgs(t *testing.T, args ...string) (mlcc.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("mlccsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parse(fs, args)
}

// writeSpec writes doc as a spec file and returns its path.
func writeSpec(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// resolve returns c.Resolve(), failing the test on an error.
func resolve(t *testing.T, c mlcc.Config) mlcc.Config {
	t.Helper()
	r, err := c.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// withScenario returns c.WithScenario(kind), failing the test on an error.
func withScenario(t *testing.T, c mlcc.Config, kind string) mlcc.Config {
	t.Helper()
	r, err := c.WithScenario(kind)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParseSpec(t *testing.T) {
	// What the flags meant before -longhaul defaulted to 0: an explicit
	// 3 ms, zeroed when a scenario was given so spacedc's 100 ms applies.
	oldDefaults := mlcc.Config{
		Algorithm: "mlcc", Workload: "websearch", IntraLoad: 0.5, CrossLoad: 0.2,
		Duration: 5 * mlcc.Millisecond, HostsPerLeaf: 8, LongHaulDelay: 3 * mlcc.Millisecond,
		Shards: 1, Seed: 1,
	}
	oldScenario := oldDefaults
	oldScenario.LongHaulDelay = 0
	oldScenario = withScenario(t, oldScenario, "spacedc")
	explicitHaul := oldDefaults
	explicitHaul.LongHaulDelay = 5 * mlcc.Millisecond
	explicitHaul = withScenario(t, explicitHaul, "spacedc")

	// -scenario-kind appends spacedc's long haul after -fault-plan's events,
	// keeping that plan's seed and node events.
	userPlan := &fault.Plan{
		Seed:   4,
		Events: []fault.Event{{At: mlcc.Millisecond, Link: "longhaul", Action: fault.LinkDown}, {At: 2 * mlcc.Millisecond, Link: "longhaul", Action: fault.LinkUp}},
		Nodes:  []fault.NodeEvent{{At: mlcc.Millisecond, Node: "host1", Action: fault.HostCrash}},
	}
	var planDoc strings.Builder
	if err := fault.WritePlan(&planDoc, userPlan); err != nil {
		t.Fatal(err)
	}
	planned := oldDefaults
	planned.LongHaulDelay, planned.Fault = 0, userPlan
	planned = withScenario(t, planned, "spacedc")

	recorded := resolve(t, mlcc.Config{Algorithm: "hpcc", Workload: "hadoop", IntraLoad: 0.3,
		Duration: 2 * mlcc.Millisecond, HostsPerLeaf: 2, Audit: true, Seed: 9})
	manifest, err := json.Marshal(map[string]any{"tool": "mlccsim", "config": recorded})
	if err != nil {
		t.Fatal(err)
	}
	overridden := recorded
	overridden.Shards = 2

	cases := []struct {
		name    string
		args    []string
		want    mlcc.Config // compared resolved
		wantErr string
	}{
		{name: "flag overrides only its field", args: []string{"-spec", writeSpec(t, string(manifest)), "-shards", "2"}, want: overridden},
		{name: "absent field takes Run's default", args: []string{"-spec", writeSpec(t, `{"config": {"algorithm": "dcqcn"}}`)},
			want: resolve(t, mlcc.Config{Algorithm: "dcqcn"})},
		{name: "old longhaul default", want: resolve(t, oldDefaults)},
		{name: "old longhaul default under a scenario", args: []string{"-scenario-kind", "spacedc"}, want: resolve(t, oldScenario)},
		{name: "explicit longhaul under a scenario", args: []string{"-longhaul", "5ms", "-scenario-kind", "spacedc"}, want: resolve(t, explicitHaul)},
		{name: "scenario long haul after the fault plan", args: []string{"-fault-plan", writeSpec(t, planDoc.String()), "-scenario-kind", "spacedc"},
			want: resolve(t, planned)},
		{name: "a spec carries its scenario already", args: []string{"-spec", writeSpec(t, string(manifest)), "-scenario-kind", "spacedc"},
			wantErr: "-scenario-kind excludes -scenario and -spec"},
		{name: "unknown config key", args: []string{"-spec", writeSpec(t, `{"config": {"algorithm": "mlcc", "bogus": 1}}`)},
			wantErr: `unknown field "bogus"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseArgs(t, c.args...)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("parse(%q) error = %v, want %q", c.args, err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := resolve(t, got); !reflect.DeepEqual(got, c.want) {
				t.Errorf("parse(%q) resolved to\n%+v\nwant\n%+v", c.args, got, c.want)
			}
		})
	}
	// spacedc's long haul applies unless -longhaul overrides it, and its
	// three events follow -fault-plan's two.
	if got := resolve(t, oldScenario).LongHaulDelay; got != 100*mlcc.Millisecond {
		t.Errorf("scenario long haul = %v, want spacedc's 100ms", got)
	}
	if got := planned.Fault; got.Seed != 4 || len(got.Events) != 5 || got.Events[0] != userPlan.Events[0] || len(got.Nodes) != 1 {
		t.Errorf("-fault-plan under spacedc became %+v", got)
	}
}

// TestParseSpecShapesScenario pins that -scenario-kind sizes its plan to the
// fabric and seed the other flags describe: four leaves per DC of one host
// each is an 8-host fabric, and the plan binds and runs on it.
func TestParseSpecShapesScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	parsed, err := parseArgs(t, "-hosts-per-leaf", "1", "-seed", "3", "-scenario-kind", "collective")
	if err != nil {
		t.Fatal(err)
	}
	want := withScenario(t, mlcc.Config{HostsPerLeaf: 1, Seed: 3}, "collective").Scenario
	if !reflect.DeepEqual(parsed.Scenario, want) {
		t.Fatalf("plan sized for another fabric:\n got %+v\nwant %+v", parsed.Scenario, want)
	}
	res, err := mlcc.Run(resolve(t, parsed))
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range res.Collectives {
		if !cs.Finished {
			t.Errorf("collective %s unfinished: %d/%d phases", cs.Name, cs.PhasesDone, cs.Phases)
		}
	}
}

// TestReportScenarioFaults pins that the summary's fault lines follow the
// plan the run applied: spacedc's long-haul outage drops frames with no
// -fault-plan given.
func TestReportScenarioFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	parsed, err := parseArgs(t, "-scenario-kind", "spacedc", "-hosts-per-leaf", "2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := resolve(t, parsed)
	res, err := mlcc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	report(&out, cfg, res, 0)
	if !strings.Contains(out.String(), "fault drops    1871\n") {
		t.Errorf("summary lacks spacedc's fault drops:\n%s", out.String())
	}
}

// TestReportNodeFaultDrops pins that a node fault's destroyed frames reach
// the summary: with dci0 failed mid-run, "fault drops" is every frame the
// ports destroyed — the audit ledger's data frames lost to the fault layer
// plus its control-frame fault drops — and that is not zero.
func TestReportNodeFaultDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	parsed, err := parseArgs(t, "-hosts-per-leaf", "2", "-duration", "4ms", "-audit")
	if err != nil {
		t.Fatal(err)
	}
	parsed.Fault = &fault.Plan{Nodes: []fault.NodeEvent{
		{At: 3 * mlcc.Millisecond, Node: "dci0", Action: fault.SwitchFail},
		{At: 5 * mlcc.Millisecond, Node: "dci0", Action: fault.SwitchRecover},
	}}
	cfg := resolve(t, parsed)
	res, err := mlcc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit == "" {
		t.Fatalf("conservation books open: %v", res.AuditProblems)
	}
	var destroyed int64
	for _, key := range []string{"corrupt=", "admin_down=", "ctl_fault_drops="} {
		var v int64
		_, rest, _ := strings.Cut(res.Audit, " "+key)
		if _, err := fmt.Sscan(rest, &v); err != nil {
			t.Fatalf("audit summary lacks %s: %s", key, res.Audit)
		}
		destroyed += v
	}
	var out strings.Builder
	report(&out, cfg, res, 0)
	if want := fmt.Sprintf("fault drops    %d\n", destroyed); destroyed == 0 || !strings.Contains(out.String(), want) {
		t.Errorf("summary lacks %q (the ledger's destroyed frames):\n%s", want, out.String())
	}
}

// TestNoFeatureFallsBack pins the shard-safety contract at the CLI: no
// plane downgrades -shards 2, fault plans and guard included, and a count
// above one engine per DC is an error, not a silent clamp.
func TestNoFeatureFallsBack(t *testing.T) {
	parsed, err := parseArgs(t, "-shards", "2", "-audit", "-guard", "-wan-loss", "0.01", "-fb-loss", "0.1", "-scenario-kind", "spacedc")
	if err != nil {
		t.Fatal(err)
	}
	if got := resolve(t, parsed).Shards; got != 2 {
		t.Errorf("shards = %d, want 2", got)
	}
	parsed, err = parseArgs(t, "-shards", "3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parsed.Resolve(); err == nil || !strings.Contains(err.Error(), "the limit is 2, one engine per DC") {
		t.Errorf("-shards 3 resolved with error %v, want the per-DC limit", err)
	}
}
