package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads: workload
// order, and each metric's direction and bound.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which is
// what the acceptance check uses. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // after the clamp, so the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// compareSets prints one row per (end-to-end metric, workload) with both
// medians, the ratio b÷a, the bound and a verdict, then one row per
// (workload, seed) both sets ran for the simulated results, which must agree
// exactly. It returns the process exit code: 1 if any row is worse.
//
// Verdicts follow the choosing-metrics rule: b is worse when its median is
// worse than a's by more than the bound. Where either set's own spread is
// wider than the bound the row is unresolved instead — unless every run of b
// reads better than every run of a.
func compareSets(dst io.Writer, spec benchmarkSpec, a, b resultFile) int {
	values := func(rf resultFile, workload, name string) []float64 {
		var out []float64
		for _, r := range rf.Runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}

	worse := 0
	fmt.Fprintf(dst, "%-28s %-18s %12s %12s %18s %7s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a (base a)", "bound", "spread", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// sign > 0 means b is worse.
			sign := (mb - ma) / ma
			allBetter := slices.Min(va) > slices.Max(vb)
			if m.Better == "higher" {
				sign = -sign
				allBetter = slices.Max(va) < slices.Min(vb)
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sp > m.Bound && !allBetter:
				verdict = "unresolved"
			case sign > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(dst, "%-28s %-18s %12.6g %12.6g %11.4f (n=%d,%d) %6.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, ma, mb, mb/ma, len(va), len(vb), 100*m.Bound, 100*sp, verdict)
		}
	}

	type key struct {
		workload string
		seed     int64
	}
	type exact struct {
		digest string
		events uint64
	}
	seen := map[key]exact{}
	for _, r := range a.Runs {
		seen[key{r.Workload, r.Seed}] = exact{r.Digest, r.Events}
	}
	done := map[key]bool{}
	for _, r := range b.Runs {
		k := key{r.Workload, r.Seed}
		ea, ok := seen[k]
		if !ok || done[k] {
			continue
		}
		done[k] = true
		verdict := "ok"
		if ea.digest != r.Digest || ea.events != r.Events {
			verdict = "worse"
			worse++
		}
		fmt.Fprintf(dst, "%-28s seed %-13d %s/%d vs %s/%d  model.digest/sim.events must match exactly: %s\n",
			r.Workload, r.Seed, ea.digest, ea.events, r.Digest, r.Events, verdict)
	}
	if worse > 0 {
		fmt.Fprintf(dst, "%d rows worse\n", worse)
		return 1
	}
	return 0
}
