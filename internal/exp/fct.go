package exp

import (
	"fmt"
	"math"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
)

// fctCell is one workload-driven run, named after its CDF: flows drawn from
// cdf at the given intra-/cross-DC loads over a 5 ms arrival window (20 ms at
// Full scale), drained to a 120 ms (250 ms) deadline, on 8 hosts per leaf (32
// at Full scale, §4.1's 4:1 oversubscription) or the 100G dumbbell. Its runs
// are memoized: the avg-FCT and tail-FCT figures (11↔13, 12↔14) share them.
func fctCell(cdf string, intra, cross float64, longHaul sim.Time, dumbbell bool) cell {
	return cell{
		name: cdf,
		memo: fmt.Sprintf("%s %v %v %v %v", cdf, intra, cross, longHaul, dumbbell),
		config: func(cfg Config) spec.Config {
			c := spec.Config{Workload: cdf, IntraLoad: intra, CrossLoad: cross, LongHaulDelay: longHaul, Dumbbell: dumbbell,
				Duration: span{5 * sim.Millisecond, 20 * sim.Millisecond}[cfg.Scale], Deadline: span{120 * sim.Millisecond, 250 * sim.Millisecond}[cfg.Scale]}
			if cfg.Scale == Full && !dumbbell {
				c.HostsPerLeaf = 32
			}
			return c
		},
	}
}

// fctFigure is a Fig. 11–15-style figure: every algorithm under the
// websearch and the hadoop workload at the given loads.
func fctFigure(id, title string, layout func(*Report, [][]*outcome), intra, cross float64, longHaul sim.Time) figure {
	return figure{id: id, title: title, layout: layout, cells: []cell{
		fctCell("websearch", intra, cross, longHaul, false),
		fctCell("hadoop", intra, cross, longHaul, false),
	}}
}

var (
	fig11 = fctFigure("fig11", "Avg FCT, heavy load (intra 50% + cross 20%)", avgFCT, 0.5, 0.2, 0)
	fig12 = fctFigure("fig12", "Avg FCT, light load (intra 30% + cross 10%)", avgFCT, 0.3, 0.1, 0)
	fig13 = fctFigure("fig13", "99.9% FCT by flow size, heavy load", tailFCT, 0.5, 0.2, 0)
	fig14 = fctFigure("fig14", "99.9% FCT by flow size, light load", tailFCT, 0.3, 0.1, 0)
	fig15 = fctFigure("fig15", "Avg FCT, heavy load, 1 ms cross-DC link delay", avgFCT, 0.5, 0.2, sim.Millisecond)
)

// avgMs is a run's average FCT over the flows f admits, in ms.
func avgMs(o *outcome, f stats.Filter) float64 {
	v, _ := o.fct.Avg(f)
	return msOf(v)
}

// unfinished counts the flows that were not done by the deadline.
func unfinished(o *outcome) int { return o.sum.Flows - o.sum.Done }

// Average-FCT columns: each over the flows the run finished, beside the
// count it left unfinished.
var avgCols = []column{
	{"intra", func(o *outcome) float64 { return avgMs(o, stats.Intra) }},
	{"cross", func(o *outcome) float64 { return avgMs(o, stats.Cross) }},
	{"overall", func(o *outcome) float64 { return avgMs(o, nil) }},
	{"unfinished", func(o *outcome) float64 { return float64(unfinished(o)) }},
}

// avgFCT lays out a Fig. 11/12/15-style report: per traffic pattern, the
// average FCT of intra- and cross-DC traffic per algorithm, then MLCC's
// reduction vs each baseline, as the paper reports it.
func avgFCT(rep *Report, outs [][]*outcome) {
	for _, row := range outs {
		cdf := row[0].cell.name
		rep.Tables = append(rep.Tables, colTable("Avg FCT, "+cdf+" traffic", "ms", avgCols, row, byAlg))
		red := newTable("MLCC avg-FCT reduction vs baseline, "+cdf, "%", "intra", "cross")
		fcts := finishedByAll(row)
		for i, o := range row[1:] {
			red.addRow(o.alg, pctReduction(fcts[0], fcts[i+1], stats.Intra), pctReduction(fcts[0], fcts[i+1], stats.Cross))
		}
		rep.Tables = append(rep.Tables, red)
	}
}

// finishedByAll is each run's FCTs over the flows every run in row finished
// (the runs of one cell place the same flows under the same ids), so no
// algorithm's average gains by leaving its slowest flows unfinished.
func finishedByAll(row []*outcome) []*stats.FCTCollector {
	runs := map[pkt.FlowID]int{}
	for _, o := range row {
		for _, id := range o.sum.IDs {
			runs[id]++
		}
	}
	fcts := make([]*stats.FCTCollector, len(row))
	for i, o := range row {
		fcts[i] = stats.NewFCTCollector()
		for j, s := range o.sum.Samples {
			if runs[o.sum.IDs[j]] == len(row) {
				fcts[i].Add(s)
			}
		}
	}
	return fcts
}

// pctReduction returns how much smaller mlcc's average FCT over f is than
// base's, in percent.
func pctReduction(mlcc, base *stats.FCTCollector, f stats.Filter) float64 {
	m, _ := mlcc.Avg(f)
	b, _ := base.Avg(f)
	if b <= 0 {
		return 0
	}
	return 100 * (1 - float64(m)/float64(b))
}

// tailFCT lays out a Fig. 13/14-style report: the 99.9th-percentile FCT per
// flow-size bucket, an intra and a cross table per traffic pattern, each
// followed by the count of done flows behind every bucket's percentile.
func tailFCT(rep *Report, outs [][]*outcome) {
	buckets := stats.DefaultBuckets()
	cols := make([]string, len(buckets))
	for i, b := range buckets {
		cols[i] = b.Label
	}
	for _, row := range outs {
		for _, scope := range []struct {
			name   string
			filter stats.Filter
		}{{"intra", stats.Intra}, {"cross", stats.Cross}} {
			name := row[0].cell.name + " " + scope.name
			tbl, counts := newTable("99.9% FCT, "+name, "ms", cols...), newTable("Flows per bucket, "+name, "count", cols...)
			for _, o := range row {
				vals, ns := make([]float64, len(buckets)), make([]float64, len(buckets))
				for i, r := range o.fct.ByBucket(scope.filter, buckets) {
					vals[i], ns[i] = math.NaN(), float64(r.Count) // NaN: no flow of this size finished
					if r.Count > 0 {
						vals[i] = msOf(r.P999)
					}
				}
				tbl.addRow(o.alg, vals...)
				counts.addRow(o.alg, ns...)
			}
			rep.Tables = append(rep.Tables, tbl, counts)
		}
	}
}

// fig16 reproduces the §4.6 testbed comparison on the simulated dumbbell.
// The 4-server dumbbell needs substantial load before queues form; the
// paper's testbed runs its Hadoop mix near saturation.
var fig16 = figure{
	id:    "fig16",
	title: "Testbed dumbbell, Hadoop traffic: DCQCN vs MLCC",
	algs:  []string{topo.AlgMLCC, topo.AlgDCQCN},
	cells: []cell{fctCell("hadoop", 0.7, 0.5, 0, true)},
	layout: func(rep *Report, outs [][]*outcome) {
		fcts := finishedByAll(outs[0]) // mlcc, dcqcn
		rep.Tables = append(rep.Tables, colTable("Avg FCT, dumbbell testbed (hadoop)", "ms", avgCols, outs[0], byAlg))
		rep.addNote("MLCC improves overall avg FCT by %.1f%% vs DCQCN (paper: 19.3%%)", pctReduction(fcts[0], fcts[1], nil))
	},
}

// loadSweepFig extends the evaluation with the load-response curve the paper
// omits: average FCT as the intra-DC load grows with cross-DC load fixed at
// 20%. The interesting property is where each algorithm's curve knees.
var loadSweepFig = figure{
	id:    "loadsweep",
	title: "Extension: avg FCT vs intra-DC load",
	algs:  []string{topo.AlgMLCC, topo.AlgDCQCN, topo.AlgHPCC},
	cells: []cell{loadCell(0.3), loadCell(0.5), loadCell(0.7), loadCell(0.9)},
	// One column per load.
	layout: func(rep *Report, outs [][]*outcome) {
		cols := make([]string, len(outs))
		for i, row := range outs {
			cols[i] = row[0].cell.name
		}
		intra := newTable("Avg intra-DC FCT vs load (websearch, cross 20%)", "ms", cols...)
		left := newTable("Unfinished flows at deadline", "count", cols...)
		for ai := range outs[0] {
			vi, vu := make([]float64, len(outs)), make([]float64, len(outs))
			for li, row := range outs {
				vi[li], vu[li] = avgMs(row[ai], stats.Intra), float64(unfinished(row[ai]))
			}
			intra.addRow(outs[0][ai].alg, vi...)
			left.addRow(outs[0][ai].alg, vu...)
		}
		rep.Tables = append(rep.Tables, intra, left)
	},
	notes: []string{"expected shape: all curves rise with load; MLCC/HPCC knee later than DCQCN"},
}

// loadCell is the websearch workload at one intra-DC load, cross-DC at 20%.
func loadCell(intra float64) cell {
	c := fctCell("websearch", intra, 0.2, 0, false)
	c.name = fmt.Sprintf("%.0f%%", intra*100)
	return c
}
