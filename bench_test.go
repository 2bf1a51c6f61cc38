package mlcc

// The figure benchmarks regenerate the data behind every table and figure of
// the paper's evaluation at Quick scale (see internal/exp); run them with
//
//	go test -bench=Fig -benchtime=1x
//
// Each benchmark reports the headline quantities of its figure via
// b.ReportMetric, so `-bench` output doubles as a results table. Simulator
// performance (per-layer micro-benchmarks, shard speedup, allocation counts)
// is measured by the bench/ harness; only the engine's 0-alloc proof lives
// here, beside TestBenchExact.

import (
	"testing"

	"mlcc/internal/exp"
	"mlcc/internal/sim"
)

// runExperiment executes a registered experiment once per bench iteration.
func runExperiment(b *testing.B, id string) *exp.Report {
	b.Helper()
	e, ok := exp.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var rep *exp.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = e.Run(exp.Config{Scale: exp.Quick, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// metric pulls a table cell into the benchmark output.
func metric(b *testing.B, rep *exp.Report, table int, row, col, name string) {
	b.Helper()
	if table >= len(rep.Tables) {
		return
	}
	if v, ok := rep.Tables[table].Get(row, col); ok {
		b.ReportMetric(v, name)
	}
}

func BenchmarkFig02Motivation(b *testing.B) {
	rep := runExperiment(b, "fig2")
	metric(b, rep, 0, "dcqcn", "pfcPauses", "dcqcn-pfc")
	metric(b, rep, 0, "dcqcn", "peakLeafQMiB", "dcqcn-peakQ-MiB")
}

func BenchmarkFig03Motivation(b *testing.B) {
	rep := runExperiment(b, "fig3")
	metric(b, rep, 0, "dcqcn", "intraShare", "dcqcn-intraShare")
	metric(b, rep, 0, "mlcc", "intraShare", "mlcc-intraShare")
}

func BenchmarkFig04Motivation(b *testing.B) {
	rep := runExperiment(b, "fig4")
	metric(b, rep, 0, "dcqcn", "peakQMiB", "dcqcn-peakQ-MiB")
	metric(b, rep, 0, "dcqcn", "avgQMiB", "dcqcn-avgQ-MiB")
}

func BenchmarkFig07Convergence(b *testing.B) {
	rep := runExperiment(b, "fig7")
	metric(b, rep, 0, "simultaneous", "jain", "jain-simultaneous")
	metric(b, rep, 0, "sequential", "jain", "jain-sequential")
	metric(b, rep, 0, "simultaneous", "mean", "mean-Gbps")
}

func BenchmarkFig08Convergence(b *testing.B) {
	rep := runExperiment(b, "fig8")
	metric(b, rep, 0, "simultaneous", "jain", "jain-simultaneous")
	metric(b, rep, 0, "simultaneous", "dciQMiB", "dciQ-MiB")
}

func BenchmarkFig09DQMTheta(b *testing.B) {
	rep := runExperiment(b, "fig9")
	metric(b, rep, 0, "18.000ms", "peak", "theta18-peakQ-MiB")
	metric(b, rep, 0, "18.000ms", "steady", "theta18-steadyQ-MiB")
	metric(b, rep, 0, "18.000ms", "perFlowSteady", "theta18-perflowQ-MiB")
}

func BenchmarkFig10DQMSequential(b *testing.B) {
	rep := runExperiment(b, "fig10")
	metric(b, rep, 0, "theta=18ms", "peak", "peakQ-MiB")
	metric(b, rep, 0, "theta=18ms", "final", "finalQ-MiB")
}

func BenchmarkFig11HeavyLoad(b *testing.B) {
	rep := runExperiment(b, "fig11")
	metric(b, rep, 0, "mlcc", "intra", "ws-mlcc-intra-ms")
	metric(b, rep, 0, "dcqcn", "intra", "ws-dcqcn-intra-ms")
	metric(b, rep, 1, "dcqcn", "intra", "ws-reduction-vs-dcqcn-pct")
}

func BenchmarkFig12LightLoad(b *testing.B) {
	rep := runExperiment(b, "fig12")
	metric(b, rep, 0, "mlcc", "intra", "ws-mlcc-intra-ms")
	metric(b, rep, 1, "dcqcn", "intra", "ws-reduction-vs-dcqcn-pct")
}

func BenchmarkFig13TailHeavy(b *testing.B) {
	rep := runExperiment(b, "fig13")
	metric(b, rep, 0, "mlcc", "<10KB", "ws-intra-small-p999-ms")
	metric(b, rep, 1, "mlcc", ">5M", "ws-cross-big-p999-ms")
}

func BenchmarkFig14TailLight(b *testing.B) {
	rep := runExperiment(b, "fig14")
	metric(b, rep, 0, "mlcc", "<10KB", "ws-intra-small-p999-ms")
}

func BenchmarkFig15ShortHaul(b *testing.B) {
	rep := runExperiment(b, "fig15")
	metric(b, rep, 0, "mlcc", "intra", "ws-mlcc-intra-ms")
	metric(b, rep, 1, "dcqcn", "intra", "ws-reduction-vs-dcqcn-pct")
}

func BenchmarkFig16Testbed(b *testing.B) {
	rep := runExperiment(b, "fig16")
	metric(b, rep, 0, "mlcc", "overall", "mlcc-overall-ms")
	metric(b, rep, 0, "dcqcn", "overall", "dcqcn-overall-ms")
}

// holdIncrements is the fixed delay table of the engine hold model, in
// nanoseconds: mostly a few serialization times (80 ns is one MTU at 100G)
// with a tail of propagation and timeout delays, the mix links, pacers and
// RTO timers put on the queue. A fixed table rather than a generator keeps
// the insert sequence identical from run to run and from commit to commit.
var holdIncrements = [...]sim.Time{
	80, 80, 5, 80, 320, 80, 1000, 80, 160, 80, 7, 80, 2000, 80, 640, 80,
	80, 240, 80, 13, 80, 5000, 80, 80, 400, 80, 1, 80, 20000, 80, 960, 80,
	80, 31, 80, 80, 1500, 80, 560, 80, 3000000, 80, 80, 100, 80, 10000, 80, 720,
	80, 2, 80, 80, 800, 80, 50000, 80, 19, 80, 1200, 80, 80, 480, 80, 100000,
}

// engineHold builds the classic hold model on a fresh engine: depth events
// stay pending and every firing schedules one more at the next table delay,
// so one step is one pop plus one push at that depth — the steady state of a
// running simulation. step(n) fires exactly n events.
func engineHold(depth int) (e *sim.Engine, step func(n int)) {
	e = sim.NewEngine()
	var i, left int
	var fn func()
	fn = func() {
		i++
		e.After(holdIncrements[i%len(holdIncrements)]*sim.Nanosecond, fn)
		if left--; left == 0 {
			e.Stop()
		}
	}
	for ; i < depth; i++ {
		e.After(holdIncrements[i%len(holdIncrements)]*sim.Nanosecond, fn)
	}
	return e, func(n int) {
		left = n
		e.Run()
	}
}

// TestEngineHoldAllocFree pins the engine's steady state at 0 allocs/op:
// events come from the free list and the queue slice never regrows.
func TestEngineHoldAllocFree(t *testing.T) {
	e, step := engineHold(512)
	step(1024)
	if n := testing.AllocsPerRun(100, func() { step(64) }); n != 0 {
		t.Errorf("hold model at depth 512 allocated %v per 64 events", n)
	}
	if e.Pending() != 512 {
		t.Errorf("Pending = %d, want the hold depth 512", e.Pending())
	}
}
