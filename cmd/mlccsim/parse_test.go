package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mlcc"
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

func TestParseSpec(t *testing.T) {
	spacedc, err := mlcc.CanonicalScenario("spacedc", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// What the flags meant before -longhaul defaulted to 0: an explicit
	// 3 ms, zeroed when a scenario was given so its profile could apply.
	oldDefaults := mlcc.Config{
		Algorithm: "mlcc", Workload: "websearch", IntraLoad: 0.5, CrossLoad: 0.2,
		Duration: 5 * mlcc.Millisecond, HostsPerLeaf: 8, LongHaulDelay: 3 * mlcc.Millisecond,
		Shards: 1, Seed: 1,
	}
	oldScenario := oldDefaults
	oldScenario.LongHaulDelay = 0
	oldScenario.Scenario = spacedc

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
	// The spacedc profile's long haul applies unless -longhaul overrides it.
	if got := resolve(t, oldScenario).LongHaulDelay; got != spacedc.Profile.LongHaul {
		t.Errorf("scenario long haul = %v, want the profile's %v", got, spacedc.Profile.LongHaul)
	}
}

// TestParseSpecShapesScenario pins that -scenario-kind sizes its plan to the
// fabric the spec describes: two leaves per DC of two hosts each is an
// 8-host fabric, and the plan binds and runs on it.
func TestParseSpecShapesScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	parsed, err := parseArgs(t, "-spec", writeSpec(t, `{"config": {"leaves_per_dc": 2, "hosts_per_leaf": 2}}`),
		"-scenario-kind", "collective")
	if err != nil {
		t.Fatal(err)
	}
	want, err := mlcc.CanonicalScenario("collective", 8, 0) // the spec leaves the seed at 0
	if err != nil {
		t.Fatal(err)
	}
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
// plan the run applied: the spacedc profile's outages drop frames with no
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
		t.Errorf("summary lacks the profile's fault drops:\n%s", out.String())
	}
}
