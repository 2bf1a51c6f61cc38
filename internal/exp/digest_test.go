package exp

import (
	"testing"

	"mlcc/internal/fault"
	"mlcc/internal/guard"
	"mlcc/internal/metrics"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
	"mlcc/internal/workload"
)

// Golden digests for the Quick-scale TwoDC websearch scenario at seed 1.
// Originally recorded on the pre-optimization engine (closure-per-event,
// allocation-per-event); re-recorded once when workload.Generate's output
// order became the canonical (Start, Src, Dst, Size) sort — a deliberate
// workload-semantics change that permutes flow-ID assignment (and with it
// ECMP path choice), not an engine-behavior change. They must otherwise stay
// byte-identical under engine rewrites: any drift means simulation behavior
// changed, not just its cost.
var goldenDigests = map[string]uint64{
	"mlcc":     0xfb4dc940d7a95c6c,
	"dcqcn":    0xb40ae246b82c8a39,
	"timely":   0xb3814b5c1ed641ca,
	"hpcc":     0x44a67a9069212e43,
	"powertcp": 0x69e5bea3b7b8d357,
}

// digestOf is the seed-1 digest of alg's DigestConfig with set, when
// non-nil, applied to it, and the run.
func digestOf(alg string, set func(c *spec.Config)) (uint64, *spec.Outcome) {
	c := DigestConfig(alg, 1)
	if set != nil {
		set(&c)
	}
	return DeterminismDigest(c)
}

// TestDigestSortInvariant is the satellite's golden-digest check that the
// Generate sort itself is what the figures now run on: registering Generate's
// output re-sorted through SortFlows (an explicit idempotence pass) must not
// move the digest. If Generate ever stops emitting the canonical order, the
// re-sort would permute flow IDs and this diverges from golden.
func TestDigestSortInvariant(t *testing.T) {
	_, bare := digestOf("mlcc", nil)
	flows := append([]workload.FlowSpec(nil), bare.Flows...)
	workload.SortFlows(flows)
	got, _ := digestOf("mlcc", func(c *spec.Config) { c.Flows = flows })
	if want := goldenDigests["mlcc"]; got != want {
		t.Errorf("digest with explicit re-sort = %#016x, want golden %#016x (Generate output is not canonically sorted)", got, want)
	}
}

// TestDeterminismDigestGolden pins the end-to-end simulation outcome per
// algorithm. mlcc and dcqcn always run; the remaining algorithms are
// skipped under -short to keep the quick loop fast.
func TestDeterminismDigestGolden(t *testing.T) {
	algs := []string{"mlcc", "dcqcn"}
	if !testing.Short() {
		algs = append(algs, "timely", "hpcc", "powertcp")
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			got, r := digestOf(alg, nil)
			if want := goldenDigests[alg]; got != want {
				t.Errorf("digest(%s, seed=1) = %#016x, want %#016x", alg, got, want)
			}
			if eng := r.Net.Engines[0]; alg == "mlcc" {
				// Deferred serialization ends engage: at most three in four
				// fired events ever reached the heap. A path that silently
				// stopped deferring would still pass every digest.
				if queued := eng.EventAllocs() + eng.EventRecycles(); 4*queued > 3*eng.Fired() {
					t.Errorf("%d of %d fired events were queued, want at most 3/4", queued, eng.Fired())
				}
			}
		})
	}
}

// TestDeterminismDigestStable runs the same scenario twice in one process:
// identical seeds must give identical digests, or event ordering leaked
// nondeterminism (map iteration, pooled-object aliasing, ...).
func TestDeterminismDigestStable(t *testing.T) {
	a, _ := DeterminismDigest(DigestConfig("mlcc", 7))
	b, _ := DeterminismDigest(DigestConfig("mlcc", 7))
	if a != b {
		t.Fatalf("same-seed digests differ: %#016x vs %#016x", a, b)
	}
	if c, _ := DeterminismDigest(DigestConfig("mlcc", 8)); c == a {
		t.Errorf("different seeds collided: %#016x", a)
	}
}

// TestDigestFaultPlanInvariant proves the fault layer is pay-for-what-you-
// break: an empty plan installs nothing, and a vacuous plan (zero-probability
// loss plus an event beyond the run horizon) installs hooks and schedules an
// event yet must still reproduce the golden digest bit for bit, because
// vacuous rules draw no randomness and an unfired event changes neither the
// fired-event count nor the final clock.
func TestDigestFaultPlanInvariant(t *testing.T) {
	plans := map[string]*fault.Plan{
		"empty": {},
		"vacuous": {
			Seed: 99,
			Events: []fault.Event{
				// The digest scenario stops at 60 ms; 10 s never fires.
				{At: 10 * sim.Second, Link: "longhaul", Action: fault.LinkDown},
			},
			Loss: []fault.LossRule{{Link: "longhaul", Prob: 0}},
		},
	}
	algs := []string{"mlcc", "dcqcn"}
	if !testing.Short() {
		algs = append(algs, "timely", "hpcc", "powertcp")
	}
	for name, plan := range plans {
		for _, alg := range algs {
			name, plan, alg := name, plan, alg
			t.Run(name+"/"+alg, func(t *testing.T) {
				t.Parallel()
				if got, _ := digestOf(alg, func(c *spec.Config) { c.Fault = plan }); got != goldenDigests[alg] {
					t.Errorf("digest with %s fault plan = %#016x, want golden %#016x", name, got, goldenDigests[alg])
				}
			})
		}
	}
}

// TestDigestFaultPlanStable pins the other half of the determinism contract:
// an ACTIVE fault plan must be reproducible (same seed, same plan, same
// digest) and must actually change the outcome relative to the fault-free
// run — otherwise the plan silently failed to apply.
func TestDigestFaultPlanStable(t *testing.T) {
	plan := &fault.Plan{
		Seed: 5,
		Events: []fault.Event{
			{At: 3 * sim.Millisecond, Link: "longhaul", Action: fault.LinkDown},
			{At: 4 * sim.Millisecond, Link: "longhaul", Action: fault.LinkUp},
		},
		Loss: []fault.LossRule{{Link: "longhaul", Prob: 1e-3, Start: 5 * sim.Millisecond}},
	}
	withPlan := func(c *spec.Config) { c.Fault = plan }
	a, _ := digestOf("mlcc", withPlan)
	b, _ := digestOf("mlcc", withPlan)
	if a != b {
		t.Fatalf("same seed+plan digests differ: %#016x vs %#016x", a, b)
	}
	if a == goldenDigests["mlcc"] {
		t.Errorf("active fault plan left the digest at the fault-free golden %#016x", a)
	}
}

// TestDigestFeedbackPlanVacuous proves the reverse-path fault layer is
// pay-for-what-you-break: a plan whose feedback rules can never fire still
// installs ingress filters (and the INT validation behind them) on every
// host, yet must reproduce the golden digests byte for byte. The "zero" rule
// is vacuous (no probability, no delay) and draws no randomness;
// "beyond-horizon" carries a total blackout whose window opens after the
// 60 ms scenario ends. Either drifting means the defenses perturb healthy
// runs — exactly what they must not do. (This is also why the watchdog is
// not auto-armed by feedback plans: armed at 4·RTT it decays through
// genuine PFC-pause silences on µs-RTT flows and moves dcqcn/timely off
// golden.)
func TestDigestFeedbackPlanVacuous(t *testing.T) {
	plans := map[string]*fault.Plan{
		"zero": {Seed: 42, Feedback: []fault.FeedbackRule{{Host: "*"}}},
		"beyond-horizon": {Seed: 42, Feedback: []fault.FeedbackRule{
			{Host: "*", Drop: 1, Start: 10 * sim.Second},
		}},
	}
	algs := []string{"mlcc", "dcqcn"}
	if !testing.Short() {
		algs = append(algs, "timely", "hpcc", "powertcp")
	}
	for name, plan := range plans {
		for _, alg := range algs {
			name, plan, alg := name, plan, alg
			t.Run(name+"/"+alg, func(t *testing.T) {
				t.Parallel()
				if got, _ := digestOf(alg, func(c *spec.Config) { c.Fault = plan }); got != goldenDigests[alg] {
					t.Errorf("digest with %s feedback plan = %#016x, want golden %#016x", name, got, goldenDigests[alg])
				}
			})
		}
	}
}

// TestDigestFeedbackPlanStable pins the active half: a plan that drops and
// corrupts feedback must be reproducible seed-for-seed and must actually move
// the outcome off the fault-free golden — otherwise it silently failed to
// bind at host ingress.
func TestDigestFeedbackPlanStable(t *testing.T) {
	plan := &fault.Plan{
		Seed: 5,
		Feedback: []fault.FeedbackRule{
			{Host: "*", Drop: 0.2, Corrupt: 0.3, Start: 2 * sim.Millisecond},
		},
	}
	withPlan := func(c *spec.Config) { c.Fault = plan }
	a, _ := digestOf("hpcc", withPlan)
	b, _ := digestOf("hpcc", withPlan)
	if a != b {
		t.Fatalf("same seed+plan digests differ: %#016x vs %#016x", a, b)
	}
	if a == goldenDigests["hpcc"] {
		t.Errorf("active feedback plan left the digest at the fault-free golden %#016x", a)
	}
}

// TestDigestGuardInvariant proves the guard plane is behaviour-free: running
// with the storm watchdog, deadlock detector and progress supervisor all
// armed (default configuration, scaled by the cross-DC RTT) must reproduce
// the golden digest bit for bit. The plane reads only at quiescent points and
// schedules nothing, so both the guard-off run and the armed-but-untriggered
// run execute the identical event sequence. The aggressive variant arms a
// hair-trigger storm window on top — even a *detected* storm only records
// and reports, so it too must stay golden.
func TestDigestGuardInvariant(t *testing.T) {
	configs := map[string]*guard.Config{
		"defaults": {},
		"aggressive": {
			Every:       50 * sim.Microsecond,
			StormWindow: 500 * sim.Microsecond,
			StormFrac:   0.05,
		},
	}
	algs := []string{"mlcc", "dcqcn"}
	if !testing.Short() {
		algs = append(algs, "timely", "hpcc", "powertcp")
	}
	for name, gc := range configs {
		for _, alg := range algs {
			name, gc, alg := name, gc, alg
			t.Run(name+"/"+alg, func(t *testing.T) {
				t.Parallel()
				if got, _ := digestOf(alg, func(c *spec.Config) { c.Guard = gc }); got != goldenDigests[alg] {
					t.Errorf("digest with %s guard = %#016x, want golden %#016x", name, got, goldenDigests[alg])
				}
			})
		}
	}
}

// TestDigestTelemetryInvariant proves passive telemetry is behaviour-free:
// running with the registry and flight recorder attached must reproduce the
// golden digest bit for bit. If a metrics call ever schedules an event,
// draws randomness, or perturbs packet handling, this fails.
func TestDigestTelemetryInvariant(t *testing.T) {
	algs := []string{"mlcc", "dcqcn"}
	if !testing.Short() {
		algs = append(algs, "timely", "hpcc", "powertcp")
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			tel := metrics.New(metrics.Options{Metrics: true, FlightRecorderSize: 1024})
			got, _ := digestOf(alg, func(c *spec.Config) { c.Telemetry = tel })
			if want := goldenDigests[alg]; got != want {
				t.Errorf("digest with telemetry = %#016x, want golden %#016x", got, want)
			}
			if tel.Registry().Len() == 0 {
				t.Error("telemetry registry stayed empty: topology did not register instruments")
			}
			if tel.Recorder().Recorded() == 0 {
				t.Error("flight recorder saw no events despite traffic")
			}
		})
	}
}
