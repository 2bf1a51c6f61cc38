package exp

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestRegistryComplete checks the registry's order and entries; that every
// figure is registered is TestFigureGoldens' job (one golden per id).
func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	// Numeric ordering: fig2 before fig10.
	pos := map[string]int{}
	for i, id := range ids {
		pos[id] = i
	}
	if pos["fig2"] > pos["fig10"] {
		t.Error("IDs not numerically sorted")
	}
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok || e.Run == nil || e.Title == "" {
			t.Errorf("experiment %q incomplete", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted unknown id")
	}
}

func TestTableAccessors(t *testing.T) {
	tbl := newTable("demo", "ms", "a", "b")
	tbl.addRow("x", 1, 2)
	tbl.addRow("y", 3) // short row: missing cell is zero
	if v, ok := tbl.Get("x", "b"); !ok || v != 2 {
		t.Fatalf("Get(x,b) = %v, %v", v, ok)
	}
	if v, ok := tbl.Get("y", "b"); !ok || v != 0 {
		t.Fatalf("Get(y,b) = %v, %v", v, ok)
	}
	if _, ok := tbl.Get("z", "a"); ok {
		t.Fatal("Get on missing row succeeded")
	}
	if _, ok := tbl.Get("x", "c"); ok {
		t.Fatal("Get on missing col succeeded")
	}
	if len(tbl.rows) != 2 || tbl.rows[0].label != "x" {
		t.Fatalf("rows = %v", tbl.rows)
	}
	s := tbl.String()
	if !strings.Contains(s, "demo (ms)") || !strings.Contains(s, "x") {
		t.Fatalf("String = %q", s)
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{ID: "r", title: "T"}
	rep.Tables = append(rep.Tables, newTable("t", "", "c"))
	rep.addNote("hello %d", 7)
	s := rep.String()
	if !strings.Contains(s, "== r: T ==") || !strings.Contains(s, "hello 7") {
		t.Fatalf("report string %q", s)
	}
}

func TestParallelRunsAllJobs(t *testing.T) {
	var n atomic.Int64
	jobs := make([]func(), 50)
	for i := range jobs {
		jobs[i] = func() { n.Add(1) }
	}
	parallel(4, jobs)
	if n.Load() != 50 {
		t.Fatalf("ran %d jobs", n.Load())
	}
	// Serial path.
	n.Store(0)
	parallel(1, jobs[:3])
	if n.Load() != 3 {
		t.Fatalf("serial ran %d", n.Load())
	}
	// Degenerate inputs.
	parallel(0, nil)
	parallel(100, jobs[:2])
}

func TestFigNumParsing(t *testing.T) {
	if figNum("fig13") != 13 || figNum("fig2") != 2 || figNum("ablation") != 0 {
		t.Fatal("figNum broken")
	}
}

// TestFig10EndToEnd is the cheapest full experiment: DQM sequential burst.
func TestFig10EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Lookup("fig10")
	rep, err := e.Run(Config{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	peak, ok := rep.Tables[0].Get("theta=18ms", "peak")
	if !ok || peak <= 1 {
		t.Fatalf("peak queue = %v MB, expected a burst of several MB", peak)
	}
	final, _ := rep.Tables[0].Get("theta=18ms", "final")
	if final > peak/2 {
		t.Fatalf("queue did not drain: peak %v, final %v", peak, final)
	}
	if len(rep.Series) == 0 || rep.Series[0].Len() == 0 {
		t.Fatal("no series recorded")
	}
}

// TestFig16EndToEnd checks the dumbbell comparison: MLCC must not lose to
// DCQCN overall on the testbed scenario.
func TestFig16EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Lookup("fig16")
	rep, err := e.Run(Config{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, ok1 := rep.Tables[0].Get("mlcc", "overall")
	d, ok2 := rep.Tables[0].Get("dcqcn", "overall")
	if !ok1 || !ok2 {
		t.Fatal("missing rows")
	}
	if m <= 0 || d <= 0 {
		t.Fatalf("degenerate FCTs: mlcc=%v dcqcn=%v", m, d)
	}
	if m > d*1.05 {
		t.Fatalf("MLCC overall FCT %v worse than DCQCN %v", m, d)
	}
}
