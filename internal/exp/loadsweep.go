package exp

import (
	"fmt"

	"mlcc/internal/stats"
	"mlcc/internal/topo"
)

func init() {
	register(Experiment{
		ID:    "loadsweep",
		Title: "Extension: avg FCT vs intra-DC load (MLCC vs DCQCN vs HPCC)",
		Run:   runLoadSweep,
	})
}

// runLoadSweep extends the evaluation with the load-response curve the paper
// omits: average FCT as the intra-DC load grows with cross-DC load fixed at
// 20%. The interesting property is where each algorithm's curve knees.
func runLoadSweep(cfg Config) (*Report, error) {
	rep := &Report{ID: "loadsweep", Title: "Extension: avg FCT vs intra-DC load"}
	algs := []string{topo.AlgMLCC, topo.AlgDCQCN, topo.AlgHPCC}
	loads := []float64{0.3, 0.5, 0.7, 0.9}

	// results[ai*len(loads)+li] is algorithm ai at load li.
	results, err := sweep(cfg.Workers, len(algs)*len(loads), func(i int) (*fctResult, error) {
		return runFCT(fctKey{
			alg: algs[i/len(loads)], cdf: "websearch", intra: loads[i%len(loads)], cross: 0.2,
			scale: cfg.Scale, seed: cfg.Seed, shards: cfg.Shards,
		})
	})
	if err != nil {
		return nil, err
	}

	cols := make([]string, len(loads))
	for i, l := range loads {
		cols[i] = fmt.Sprintf("%.0f%%", l*100)
	}
	intra := NewTable("Avg intra-DC FCT vs load (websearch, cross 20%)", "ms", cols...)
	unfinished := NewTable("Unfinished flows at deadline", "count", cols...)
	for ai, alg := range algs {
		row := results[ai*len(loads) : (ai+1)*len(loads)]
		vi := make([]float64, len(loads))
		vu := make([]float64, len(loads))
		for i, r := range row {
			a, _ := r.Col.Avg(stats.Intra)
			vi[i] = msOf(a)
			vu[i] = float64(r.Unfinished)
		}
		intra.AddRow(alg, vi...)
		unfinished.AddRow(alg, vu...)
		for _, r := range row {
			rep.Manifests = append(rep.Manifests, r.Manifest)
			rep.AddWarning("%s", r.Warning)
		}
	}
	rep.Tables = append(rep.Tables, intra, unfinished)
	rep.AddNote("expected shape: all curves rise with load; MLCC/HPCC knee later than DCQCN")
	return rep, nil
}
