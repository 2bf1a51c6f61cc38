package main

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
)

// TestSmoke runs both passes of all five workloads, micro-drivers included,
// at a sixty-fourth of the benchmark's scale with one lap per configuration. It
// holds the harness to the correctness gate and to BENCHMARK.json: every
// metric the file names is emitted exactly once per workload, with the unit
// the file gives, and nothing else is.
func TestSmoke(t *testing.T) {
	spec, err := readBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defs := workloads()
	if len(spec.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(defs))
	}
	for i, w := range defs {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 1, scale: 64, laps: 1}
			timed := timedRun(w, cfg)
			checkOutcome(t, "timed", timed, spec.EndToEnd)
			traced := tracedRun(w, &cfg)
			checkOutcome(t, "traced", traced, spec.PerLayer)

			var shares float64
			for _, b := range profBuckets {
				shares += traced.metrics["prof."+b+"_share"].Value
			}
			// A lap this short may go unsampled at 100 Hz; any samples there
			// are must be fully attributed.
			if shares != 0 && math.Abs(shares-1) > 0.01 {
				t.Errorf("prof.*_share sum to %v, want 1", shares)
			}
			if len(cfg.tracer.perLapSeconds("segment")) != 1 {
				t.Errorf("traced run recorded %d laps of spans, want 1", len(cfg.tracer.perLapSeconds("segment")))
			}
		})
	}
}

func checkOutcome(t *testing.T, pass string, o *runOutcome, want []metricSpec) {
	t.Helper()
	for _, g := range o.gate {
		t.Errorf("%s: gate: %s", pass, g)
	}
	if o.failed != 0 || o.attempted == 0 {
		t.Errorf("%s: %d of %d flows failed", pass, o.failed, o.attempted)
	}
	got := make([]string, 0, len(o.metrics))
	for name := range o.metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	names := make([]string, 0, len(want))
	for _, m := range want {
		names = append(names, m.Name)
		if g, ok := o.metrics[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", pass, m.Name, g.Unit, m.Unit)
		}
	}
	sort.Strings(names)
	if strings.Join(got, " ") != strings.Join(names, " ") {
		t.Errorf("%s: emitted metrics differ from BENCHMARK.json\n emitted: %v\n named:   %v", pass, got, names)
	}
}

// TestQuartiles pins the quantile method to Python's
// statistics.quantiles(v, n=4), which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := benchmarkSpec{
		Workloads: []struct {
			Name string `json:"name"`
		}{{Name: "w"}},
		EndToEnd: []metricSpec{{Name: "lap_s", Unit: "s", Better: "lower", Bound: 0.1}},
	}
	set := func(digest string, values ...float64) resultFile {
		var rf resultFile
		for i, v := range values {
			rf.Runs = append(rf.Runs, runRecord{Workload: "w", Seed: int64(i), Digest: digest, Events: 7,
				Metrics: map[string]metric{"lap_s": {Value: v, Unit: "s"}}})
		}
		return rf
	}
	steady := set("0x1", 1.00, 1.01, 0.99, 1.00)
	for _, tc := range []struct {
		name    string
		b       resultFile
		verdict string
		code    int
	}{
		{"same", set("0x1", 1.00, 1.02, 0.98, 1.01), " ok", 0},
		{"slower", set("0x1", 1.20, 1.21, 1.19, 1.20), " worse", 1},
		{"noisy", set("0x1", 0.7, 1.3, 0.8, 1.2), " unresolved", 0},
		{"noisy but all faster", set("0x1", 0.5, 0.9, 0.6, 0.8), " ok", 0},
		{"model changed", set("0x2", 1.00, 1.01, 0.99, 1.00), "must match exactly: worse", 1},
	} {
		var out bytes.Buffer
		code := compareSets(&out, spec, steady, tc.b)
		if code != tc.code || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: exit %d, want %d with verdict %q; output:\n%s", tc.name, code, tc.code, tc.verdict, out.String())
		}
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mlcc/internal/sim.(*Engine).RunUntil":                   "sim",
		"container/heap.down":                                    "heap",
		"mlcc/internal/cc/dcqcn.(*sender).OnAck":                 "cc",
		"mlcc/internal/core.(*DQM).OnPacketOut":                  "cc",
		"mlcc/internal/audit.(*Ledger).OnInject":                 "planes",
		"mlcc/internal/dci.(*PFQDisc).Next":                      "dci",
		"runtime.mallocgc":                                       "runtime",
		"runtime.mapaccess2_fast32":                              "map",
		"internal/runtime/maps.(*Map).getWithKeySmall":           "map",
		"internal/runtime/atomic.(*Uint32).Load":                 "runtime",
		"mlcc/bench.runLap":                                      "other",
		"slices.SortFunc[go.shape.[]mlcc/internal/sim.Time,int]": "other",
		"main.main": "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
