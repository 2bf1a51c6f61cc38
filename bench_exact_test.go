package mlcc

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

// TestBenchExact is `make bench-exact`'s comparer: the fresh result set named
// by MLCC_BENCH_EXACT against the newest committed BENCH_<pr>.json (named by
// MLCC_BENCH_BASE), on the metrics that repeat exactly from run to run.
// Timings are deliberately not read: one run on a shared machine cannot
// resolve them.
func TestBenchExact(t *testing.T) {
	newest, fresh := os.Getenv("MLCC_BENCH_BASE"), os.Getenv("MLCC_BENCH_EXACT")
	if newest == "" || fresh == "" {
		t.Skip("MLCC_BENCH_BASE and MLCC_BENCH_EXACT are unset; run make bench-exact")
	}
	type run struct {
		Workload string
		Seed     int
		Digest   string `json:"model_digest"`
		Events   int64  `json:"sim_events"`
		Metrics  map[string]struct{ Value float64 }
	}
	load := func(path string) map[string]run {
		var set struct{ Runs []run }
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &set)
		}
		if err != nil || len(set.Runs) == 0 {
			t.Fatalf("%s: %d runs, %v", path, len(set.Runs), err)
		}
		runs := map[string]run{}
		for _, r := range set.Runs {
			runs[fmt.Sprintf("%s seed %d", r.Workload, r.Seed)] = r
		}
		return runs
	}
	base, runs := load(newest), load(fresh)
	for key := range runs {
		if _, ok := base[key]; !ok {
			t.Errorf("%s: not in %s", key, newest)
		}
	}
	// Ranging over the committed set, so a workload the fresh run lost (a
	// name the Makefile failed to pass on, say) fails instead of passing
	// unchecked.
	for key, want := range base {
		got, ok := runs[key]
		if !ok {
			t.Errorf("%s: in %s but not in the fresh set %s", key, newest, fresh)
			continue
		}
		if got.Digest != want.Digest || got.Events != want.Events {
			t.Errorf("%s: model.digest/sim.events %s/%d, %s has %s/%d", key, got.Digest, got.Events, newest, want.Digest, want.Events)
		}
		for _, m := range []string{"alloc_mb_per_lap", "live_heap_mb"} {
			g, w := got.Metrics[m].Value, want.Metrics[m].Value
			if w == 0 || math.Abs(g/w-1) > 0.01 {
				t.Errorf("%s: %s = %.4g MB, %s has %.4g (×%.3f, gate ±1%%)", key, m, g, newest, w, g/w)
			}
		}
	}
}
