package spec

import (
	"reflect"
	"strings"
	"testing"

	"mlcc/internal/fault"
	"mlcc/internal/scenario"
	"mlcc/internal/sim"
)

// TestResolveRanges pins Resolve's verdict on the fields that arrive from
// outside through -spec: defaults fill zeros, out-of-range values are
// rejected, and an accepted config resolves to itself.
func TestResolveRanges(t *testing.T) {
	cases := []struct {
		name    string
		c       Config
		wantErr string
		check   func(r Config) bool
	}{
		{name: "two-DC defaults", check: func(r Config) bool {
			return r.SpinesPerDC == 2 && r.LeavesPerDC == 4 && r.HostsPerLeaf == 8 && r.HostRate == 25*sim.Gbps &&
				r.Theta == 18*sim.Millisecond && r.RTOMax == 100*sim.Millisecond && r.MaxRetrans == 16 && r.LongHaulDelay == 3*sim.Millisecond
		}},
		{name: "dumbbell defaults", c: Config{Dumbbell: true}, check: func(r Config) bool {
			return r.SpinesPerDC == 0 && r.LeavesPerDC == 1 && r.HostsPerLeaf == 2 && r.HostRate == 100*sim.Gbps
		}},
		{name: "ablation algorithm", c: Config{Algorithm: "mlcc-nodqm"}},
		{name: "unknown algorithm", c: Config{Algorithm: "reno"}, wantErr: "unknown algorithm"},
		{name: "negative leaves", c: Config{LeavesPerDC: -1}, wantErr: "negative shape"},
		{name: "too many spines", c: Config{SpinesPerDC: 51}, wantErr: "exceed 50"},
		// A leaf has at most 128 ports, hosts plus uplinks, so that a port
		// index fits a flight record's int8.
		{name: "128 leaf ports", c: Config{HostsPerLeaf: 126}, check: func(r Config) bool { return r.HostsPerLeaf == 126 }},
		{name: "129 leaf ports", c: Config{HostsPerLeaf: 127}, wantErr: "exceed a leaf's 128 ports"},
		{name: "128 dumbbell leaf ports", c: Config{Dumbbell: true, HostsPerLeaf: 127}, check: func(r Config) bool { return r.HostsPerLeaf == 127 }},
		{name: "129 dumbbell leaf ports", c: Config{Dumbbell: true, HostsPerLeaf: 128}, wantErr: "exceed a leaf's 128 ports"},
		{name: "dumbbell with spines", c: Config{Dumbbell: true, SpinesPerDC: 2}, wantErr: "dumbbell"},
		{name: "dumbbell with one host per DC", c: Config{Dumbbell: true, HostsPerLeaf: 1}, wantErr: "dumbbell"},
		{name: "negative host rate", c: Config{HostRate: -1}, wantErr: "negative host rate"},
		{name: "negative theta", c: Config{Theta: -sim.Millisecond}, wantErr: "negative host rate"},
		{name: "negative retransmission budget", c: Config{MaxRetrans: -1}, wantErr: "negative host rate"},
		// One engine per DC: 0 resolves to 1, 1 and 2 stand, and anything
		// else is an error naming the limit, never a silent clamp.
		{name: "zero shards", check: func(r Config) bool { return r.Shards == 1 }},
		{name: "one shard", c: Config{Shards: 1}, check: func(r Config) bool { return r.Shards == 1 }},
		{name: "two shards", c: Config{Shards: 2}, check: func(r Config) bool { return r.Shards == 2 }},
		{name: "negative shards", c: Config{Shards: -3}, wantErr: "the limit is 2, one engine per DC"},
		{name: "excess shards", c: Config{Shards: 8}, wantErr: "the limit is 2, one engine per DC"},
	}
	for _, tc := range cases {
		r, err := tc.c.Resolve()
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: Resolve error = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if tc.check != nil && !tc.check(r) {
			t.Errorf("%s: resolved to %+v", tc.name, r)
		}
		if again, err := r.Resolve(); err != nil || !reflect.DeepEqual(again, r) {
			t.Errorf("%s: Resolve is not idempotent: %+v, %v", tc.name, again, err)
		}
	}
}

// TestHostsMatchesBuild pins that Hosts, on an unresolved config, counts the
// hosts Build lays out.
func TestHostsMatchesBuild(t *testing.T) {
	for _, c := range []Config{{}, {LeavesPerDC: 2, HostsPerLeaf: 2}, {Dumbbell: true}, {Dumbbell: true, HostsPerLeaf: 8}} {
		b, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.Hosts(), b.Net.NumHosts(); got != want {
			t.Errorf("%+v: Hosts() = %d, build has %d", c, got, want)
		}
	}
}

// TestFaultPlanSynthesis pins WithScenario's long haul for spacedc: its
// three events land after the caller's, in a copy that leaves the caller's
// plan (and the spare capacity of its event slice) alone, with the
// caller's seed, rules and node events kept; an explicit LongHaulDelay
// wins; without a plan the seed is the run's. Every other kind is traffic
// only.
func TestFaultPlanSynthesis(t *testing.T) {
	longhaul := []fault.Event{
		{Link: "longhaul", Action: fault.Degrade, Jitter: 150 * sim.Microsecond},
		{At: 120 * sim.Millisecond, Link: "longhaul", Action: fault.LinkDown},
		{At: 123 * sim.Millisecond, Link: "longhaul", Action: fault.LinkUp},
	}
	with := func(c Config, kind string) Config {
		t.Helper()
		r, err := c.WithScenario(kind)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := scenario.CanonicalPlan(kind, c.Hosts(), c.Seed)
		if !reflect.DeepEqual(r.Scenario, want) {
			t.Errorf("%s: plan %+v, want the canonical %+v", kind, r.Scenario, want)
		}
		return r
	}

	for _, kind := range scenario.Kinds() {
		if kind == "spacedc" {
			continue
		}
		if r := with(Config{Seed: 3}, kind); r.Fault != nil || r.LongHaulDelay != 0 {
			t.Errorf("%s: shaped the long haul (%v, %+v)", kind, r.LongHaulDelay, r.Fault)
		}
	}

	r := with(Config{Seed: 7}, "spacedc")
	if r.LongHaulDelay != 100*sim.Millisecond {
		t.Errorf("long haul = %v, want 100ms", r.LongHaulDelay)
	}
	if r.Fault == nil || r.Fault.Seed != 7 || !reflect.DeepEqual(r.Fault.Events, longhaul) {
		t.Errorf("plan without a caller's = %+v, want seed 7 and %+v", r.Fault, longhaul)
	}
	if r := with(Config{LongHaulDelay: 5 * sim.Millisecond}, "spacedc"); r.LongHaulDelay != 5*sim.Millisecond {
		t.Errorf("explicit long haul = %v, want 5ms", r.LongHaulDelay)
	}

	events := make([]fault.Event, 1, 8)
	events[0] = fault.Event{At: sim.Millisecond, Link: "longhaul", Action: fault.LinkDown}
	base := &fault.Plan{
		Seed:     9,
		Events:   events,
		Loss:     []fault.LossRule{{Link: "longhaul", Prob: 0.01}},
		Feedback: []fault.FeedbackRule{{Host: "*", Drop: 0.5}},
		Nodes: []fault.NodeEvent{
			{At: sim.Millisecond, Node: "host1", Action: fault.HostCrash},
			{At: 2 * sim.Millisecond, Node: "host1", Action: fault.HostRestart},
		},
	}
	orig := *base
	r = with(Config{Seed: 7, Fault: base}, "spacedc")
	fp := r.Fault
	if fp == base {
		t.Fatal("the caller's plan was returned, not a copy")
	}
	if !reflect.DeepEqual(*base, orig) || len(base.Events) != 1 {
		t.Errorf("the caller's plan changed: %+v", base)
	}
	if spare := events[:2][1]; spare != (fault.Event{}) {
		t.Errorf("%+v written into the spare capacity of the caller's events", spare)
	}
	if want := append([]fault.Event{events[0]}, longhaul...); !reflect.DeepEqual(fp.Events, want) {
		t.Errorf("events %+v, want the caller's then the long haul's: %+v", fp.Events, want)
	}
	if fp.Seed != 9 || len(fp.Loss) != 1 || len(fp.Feedback) != 1 || len(fp.Nodes) != 2 {
		t.Errorf("merged plan lost part of the caller's: seed %d, %d loss, %d feedback, %d nodes",
			fp.Seed, len(fp.Loss), len(fp.Feedback), len(fp.Nodes))
	}
	if err := fp.Validate(); err != nil {
		t.Errorf("merged plan invalid: %v", err)
	}

	if _, err := (Config{}).WithScenario("nope"); err == nil {
		t.Error("unknown kind accepted")
	}
}
