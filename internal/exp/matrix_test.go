package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlcc/internal/metrics"
	"mlcc/internal/spec"
	"mlcc/internal/topo"
)

// runCell runs one algorithm under one matrix cell at seed 1 and evaluates
// every column and the failure gate exactly as figure.run does for the
// report: the table row by column name, and the gate's failure lines.
func runCell(t *testing.T, c *cell, alg string, shards int) (row map[string]float64, fails []string) {
	t.Helper()
	o, err := c.run(alg, Config{Scale: Quick, Seed: 1, Shards: shards})
	if err != nil {
		t.Fatalf("%s/%s: %v", alg, c.name, err)
	}
	row = map[string]float64{}
	for _, col := range c.cols {
		row[col.name] = col.val(o)
	}
	return row, c.gate(alg, &o.sum)
}

// cell returns the figure's cell with the given name, or nil.
func (f *figure) cell(name string) *cell {
	for i := range f.cells {
		if f.cells[i].name == name {
			return &f.cells[i]
		}
	}
	return nil
}

// bothLayouts lists the figures TestFigureGoldens also runs on one engine:
// the fault/scenario matrices, and the convergence figures whose steady-state
// snapshot is the one read that must be shard-safe. Every other figure runs
// once, on one engine per DC, and is skipped under the race detector: it
// shares every code path with these and runs ~10× slower there.
var bothLayouts = map[string]bool{
	"resilience": true, "fb-resilience": true, "node-resilience": true, "scenario": true,
	"fig7": true, "fig8": true, "ablation": true,
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestFigureGoldens pins every registered figure byte for byte: the goldens
// under testdata/ are Report.String() at seed 1, Quick scale, each captured
// before its figure moved onto the matrix runner (identical for shards 1
// and 2, so one file serves both), and a clean run must raise no failure. A
// registered figure without a golden fails.
func TestFigureGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure")
	}
	for _, id := range IDs() {
		shardSet := []int{2}
		if bothLayouts[id] {
			shardSet = []int{1, 2}
		} else if raceEnabled {
			continue
		}
		for _, shards := range shardSet {
			id, shards := id, shards
			t.Run(fmt.Sprintf("%s/shards%d", id, shards), func(t *testing.T) {
				t.Parallel()
				want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				e, ok := Lookup(id)
				if !ok {
					t.Fatalf("%s not registered", id)
				}
				rep, err := e.Run(Config{Scale: Quick, Seed: 1, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				if got := rep.String(); got != string(want) {
					t.Errorf("report drifted from testdata/%s.golden:\n%s", id, got)
				}
				if len(rep.Failures) != 0 {
					t.Errorf("failures on a clean run: %v", rep.Failures)
				}
				if shards == 2 {
					replayFirst(t, rep)
				}
			})
		}
	}
}

// replayFirst holds the report's first run to its manifest: the manifest's
// JSON, read back as a spec, builds and runs to the same fired-event count,
// final clock and flow count.
func replayFirst(t *testing.T, rep *Report) {
	t.Helper()
	m := rep.Manifests[0]
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Net.Run(b.Config.Deadline)
	var got metrics.Manifest
	got.FillSim(b.Net.Now(), b.Net.Fired())
	got.Flows = b.Net.Summary().Flows
	if got.EventsFired != m.EventsFired || got.SimMillis != m.SimMillis || got.Flows != m.Flows {
		t.Errorf("%s/%s replays to %d events, %v ms, %d flows; the figure ran %d events, %v ms, %d flows",
			m.Workload, m.Algorithm, got.EventsFired, got.SimMillis, got.Flows, m.EventsFired, m.SimMillis, m.Flows)
	}
}

// TestMatrixGate feeds the failure gate synthetic run summaries: open books
// and guard stalls always fail a cell, aborts only where none are expected,
// and every failure names its (algorithm, cell).
func TestMatrixGate(t *testing.T) {
	strict := &cell{name: "ride-through"}
	lenient := &cell{name: "blackout", abortsExpected: true}
	cases := []struct {
		name string
		c    *cell
		sum  topo.Summary
		want []string // one substring per expected failure, in order
	}{
		{"clean", strict, topo.Summary{Flows: 4, Done: 4}, nil},
		{"unfinished flows alone pass", strict, topo.Summary{Flows: 4, Done: 3, Unfinished: 1}, nil},
		{"open books", strict, topo.Summary{AuditProblems: []string{"link longhaul: 3 frames unaccounted", "flow 2: over-delivered"}},
			[]string{"conservation: link longhaul", "conservation: flow 2"}},
		{"stall", strict, topo.Summary{Stalled: true, StallReason: "no progress for 12ms"}, []string{"guard stall aborted the run: no progress for 12ms"}},
		{"unexpected aborts", strict, topo.Summary{Flows: 4, Done: 2, Aborted: 2}, []string{"2 flow(s) aborted"}},
		{"expected aborts", lenient, topo.Summary{Flows: 4, Done: 2, Aborted: 2}, nil},
		{"expected aborts do not excuse open books", lenient,
			topo.Summary{Aborted: 2, AuditProblems: []string{"pool leak"}, Stalled: true, StallReason: "wedged"},
			[]string{"conservation: pool leak", "guard stall"}},
	}
	for _, tc := range cases {
		got := tc.c.gate("dcqcn", &tc.sum)
		if len(got) != len(tc.want) {
			t.Errorf("%s: failures = %q, want %d", tc.name, got, len(tc.want))
			continue
		}
		for i, want := range tc.want {
			if !strings.Contains(got[i], want) || !strings.HasPrefix(got[i], "dcqcn/"+tc.c.name+": ") {
				t.Errorf("%s: failure %d = %q, want prefix %q and substring %q", tc.name, i, got[i], "dcqcn/"+tc.c.name+": ", want)
			}
		}
	}
}
