package exp

import (
	"testing"

	"mlcc/internal/spec"
	"mlcc/internal/stats"
)

// clearMemo drops every memoized run, forcing reruns.
func clearMemo() {
	memo.Range(func(k, _ any) bool {
		memo.Delete(k)
		return true
	})
}

// TestFCTCacheReuse verifies the memoization that lets fig11 and fig13 share
// simulations. Reuse is observed through the memo itself (the canonical
// entry survives the second call, including a call from another cell with
// the same key, as fig13's cell is to fig11's); the results handed out must
// be clones, never the same pointer (see TestFCTCacheHitsDoNotAlias), and
// each is labelled with the cell that asked for it.
func TestFCTCacheReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	clearMemo()
	c, twin := fctCell("hadoop", 0.1, 0.05, 0, true), fctCell("hadoop", 0.1, 0.05, 0, true)
	cfg := Config{Scale: Quick, Seed: 1}
	k := c.memoKey("mlcc", cfg)
	r1, err := c.run("mlcc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	canon, ok := memo.Load(k)
	if !ok {
		t.Fatal("run was not memoized")
	}
	r2, err := twin.run("mlcc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := memo.Load(k); got != canon {
		t.Fatal("cache hit replaced the canonical entry instead of reusing it")
	}
	if r1 == r2 {
		t.Fatal("cache handed out aliased results")
	}
	if r1.cell != &c || r2.cell != &twin {
		t.Fatal("a memoized run is not labelled with the cell that asked for it")
	}
	if a1, _ := r1.fct.Avg(nil); func() bool { a2, _ := r2.fct.Avg(nil); return a1 != a2 }() {
		t.Fatal("clone of cached run diverged from original")
	}
	clearMemo()
	r3, err := c.run("mlcc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := memo.Load(k); got == canon {
		t.Fatal("clearMemo did not drop the entry")
	}
	// Determinism: same seed, same results.
	a1, _ := r1.fct.Avg(nil)
	a3, _ := r3.fct.Avg(nil)
	if a1 != a3 {
		t.Fatalf("non-deterministic rerun: %v vs %v", a1, a3)
	}
}

func TestRunFCTUnknownWorkload(t *testing.T) {
	c := fctCell("nope", 0, 0, 0, false)
	if _, err := c.run("mlcc", Config{Scale: Quick}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestFCTCacheHitsDoNotAlias is the regression test for the cache-aliasing
// bug: the memo used to hand every caller the same result, so the avg-FCT
// and tail-FCT figures sharing a run could corrupt each other through the
// shared collector and manifest. Now each call — hit or miss — must get an
// independent clone: mutating one result's collector, manifest counters,
// and summary must leave a fresh recall untouched.
func TestFCTCacheHitsDoNotAlias(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	cell := fctCell("websearch", 0.3, 0.1, 0, true)
	cfg := Config{Scale: Quick, Seed: 321}
	a, err := cell.run("mlcc", cfg) // miss: runs the simulation
	if err != nil {
		t.Fatal(err)
	}
	b, err := cell.run("mlcc", cfg) // hit: recalled from the memo
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.fct == b.fct || a.man == b.man {
		t.Fatal("cache returned aliased results")
	}
	if a.n != nil || b.n != nil {
		t.Fatal("the memo handed out a finished network")
	}
	wantLen, wantFlows := b.fct.Len(), b.sum.Flows
	wantEvents := b.man.EventsFired

	// Vandalize the first result every way a consumer could.
	a.fct.Add(stats.FCTSample{Size: 1})
	a.sum.Flows = -1
	a.man.EventsFired = 0
	vandal := a.man.Config.(spec.Config)
	vandal.Shards = -1
	a.man.Config = vandal
	a.man.Counters = map[string]float64{"bogus": 1}

	c, err := cell.run("mlcc", cfg) // fresh recall must be pristine
	if err != nil {
		t.Fatal(err)
	}
	if c.fct.Len() != wantLen {
		t.Errorf("recalled collector has %d samples, want %d", c.fct.Len(), wantLen)
	}
	if c.sum.Flows != wantFlows {
		t.Errorf("recalled Flows = %d, want %d", c.sum.Flows, wantFlows)
	}
	if c.man.EventsFired != wantEvents {
		t.Errorf("recalled EventsFired = %d, want %d", c.man.EventsFired, wantEvents)
	}
	if c.man.Config.(spec.Config).Shards == -1 {
		t.Error("recalled manifest config aliased the mutated one")
	}
	if _, ok := c.man.Counters["bogus"]; ok {
		t.Error("recalled manifest counters aliased the mutated map")
	}
}

// TestFCTKeyCoversShards pins that the shard count participates in
// memoization: a shards=2 run must not be served a shards=1 memo entry
// (the digests match, but the manifest must record how the run was made).
func TestFCTKeyCoversShards(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	c := fctCell("websearch", 0.3, 0.1, 0, true)
	a, err := c.run("mlcc", Config{Scale: Quick, Seed: 321})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.run("mlcc", Config{Scale: Quick, Seed: 321, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.man.Config.(spec.Config).Shards; got != 1 {
		t.Errorf("shards=0 run recorded shards=%v, want 1", got)
	}
	if got := b.man.Config.(spec.Config).Shards; got != 2 {
		t.Errorf("shards=2 run recorded shards=%v, want 2", got)
	}
	// Same physical scenario: the sharded run must reproduce the flow
	// outcome of the single-engine one.
	if a.fct.Len() != b.fct.Len() || unfinished(a) != unfinished(b) {
		t.Errorf("sharded run diverged: %d/%d samples, %d/%d unfinished",
			b.fct.Len(), a.fct.Len(), unfinished(b), unfinished(a))
	}
}
