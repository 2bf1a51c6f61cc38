package mlcc

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"mlcc/internal/fault"
	"mlcc/internal/workload"
)

// replayCases are the run shapes TestManifestReplays replays, kept small
// (1 ms arrival window, two hosts per leaf); FuzzConfigJSON seeds its corpus
// with their specs.
func replayCases(t testing.TB) map[string]Config {
	t.Helper()
	base := Config{IntraLoad: 0.5, CrossLoad: 0.2, Duration: Millisecond, HostsPerLeaf: 2, Seed: 1}
	with := func(f func(*Config)) Config {
		c := base
		f(&c)
		return c
	}
	scenario := func(kind string) Config {
		c, err := base.WithScenario(kind)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return map[string]Config{
		"generated": base,
		"trace": with(func(c *Config) {
			c.Flows = []workload.FlowSpec{
				{Src: 0, Dst: 9, Size: 300_000, Cross: true, Tag: "a"},
				{Src: 1, Dst: 2, Size: 40_000, Start: 20 * Microsecond},
				{Src: 12, Dst: 3, Size: 125_000, Start: 150 * Microsecond, Cross: true},
			}
		}),
		"faults": with(func(c *Config) {
			c.Fault = &fault.Plan{
				Seed: 7,
				Events: []fault.Event{
					{At: 800 * Microsecond, Link: "longhaul", Action: fault.LinkDown},
					{At: Millisecond, Link: "longhaul", Action: fault.LinkUp},
				},
				Loss:     []fault.LossRule{{Link: "longhaul", Prob: 0.001}},
				Feedback: []fault.FeedbackRule{{Host: "*", Kinds: fault.FBAck, Drop: 0.1, Start: 500 * Microsecond, End: 1500 * Microsecond}},
				Nodes: []fault.NodeEvent{
					{At: 1200 * Microsecond, Node: "host1", Action: fault.HostCrash},
					{At: 1800 * Microsecond, Node: "host1", Action: fault.HostRestart},
					{At: 1300 * Microsecond, Node: "spine0", Action: fault.SwitchFail},
					{At: 1600 * Microsecond, Node: "spine0", Action: fault.SwitchRecover},
				},
			}
			c.FBWatchdogK = DefaultFBWatchdogK
			c.Guard = &GuardConfig{}
			c.Audit = true
		}),
		"collective": scenario("collective"),
		"spacedc":    scenario("spacedc"),
		"dumbbell":   with(func(c *Config) { c.Dumbbell, c.HostsPerLeaf = true, 0 }),
		"shards2":    with(func(c *Config) { c.Shards = 2 }),
	}
}

// runManifest runs cfg with the metrics registry on and returns the result
// and its manifest.json bytes, wall time and the runtime gauges (wall
// seconds per shard, like wall time) cleared.
func runManifest(t *testing.T, cfg Config) (*Result, []byte) {
	t.Helper()
	cfg.Telemetry = NewTelemetry(TelemetryOptions{Metrics: true})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := cfg.Telemetry.Manifest
	m.AddCounters(cfg.Telemetry.Reg)
	m.WallSeconds, m.Runtime = 0, nil
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestManifestReplays pins that a run manifest is the run's spec: decoding
// its config and running that reproduces the Result exactly, and the
// replay's manifest — config, counters and all, wall time and runtime gauges
// aside — equals the original's. spacedc's long haul rides in the spec's
// fault plan, so the replay carries its three events once.
func TestManifestReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for name, cfg := range replayCases(t) {
		for _, alg := range Algorithms() {
			cfg.Algorithm = alg
			t.Run(name+"/"+alg, func(t *testing.T) {
				res, man := runManifest(t, cfg)
				spec, err := ReadSpec(bytes.NewReader(man))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(spec.Fault, cfg.Fault) {
					t.Errorf("replay's fault plan %+v, want the run's %+v", spec.Fault, cfg.Fault)
				}
				res2, man2 := runManifest(t, spec)
				if !reflect.DeepEqual(res, res2) {
					t.Errorf("replayed result differs:\n got %+v\nwant %+v", res2, res)
				}
				if !bytes.Equal(man, man2) {
					t.Errorf("replayed manifest differs:\n got %s\nwant %s", man2, man)
				}
			})
		}
	}
}

// FuzzConfigJSON fuzzes the decoder -spec exposes to outside input: a spec
// that reads and resolves must marshal to bytes that read, resolve and
// marshal back to themselves, whenever every time in it is in [0, 2^51) ps,
// the range sim.Time's float-microsecond JSON form reads back exactly.
// Besides the replay cases' specs, testdata/fuzz/FuzzConfigJSON holds one
// figure manifest per cell kind: hand-placed flows (fig7), a Quick scenario
// fabric (scenario/collective) and the blackout's RTO and PFC fields.
func FuzzConfigJSON(f *testing.F) {
	f.Add([]byte(`{"config": {}}`))
	f.Add([]byte(`{"config": {"algorithm": "hpcc", "guard": {"stall_k": 4}, "longhaul_us": 0.5}}`))
	for _, c := range replayCases(f) {
		b, err := json.Marshal(map[string]Config{"config": c})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	roundTrip := func(b []byte) (Config, []byte, error) {
		c, err := ReadSpec(bytes.NewReader(b))
		if err == nil {
			c, err = c.Resolve()
		}
		if err != nil {
			return c, nil, err
		}
		out, err := json.Marshal(map[string]Config{"config": c})
		return c, out, err
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, out, err := roundTrip(b)
		if err != nil || !timesExact(reflect.ValueOf(c)) {
			return
		}
		_, out2, err := roundTrip(out)
		if err != nil {
			t.Fatalf("resolved spec %s does not read back: %v", out, err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("spec round trip not stable:\n got %s\nwant %s", out2, out)
		}
	})
}

// timesExact reports whether every Time reachable from v lies in
// [0, 2^51) ps.
func timesExact(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Int64:
		return v.Type() != reflect.TypeOf(Time(0)) || (v.Int() >= 0 && v.Int() < 1<<51)
	case reflect.Pointer:
		return v.IsNil() || timesExact(v.Elem())
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if !timesExact(v.Index(i)) {
				return false
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !timesExact(v.Field(i)) {
				return false
			}
		}
	}
	return true
}
