// Package stats collects and summarizes simulation results: flow completion
// times (averages, percentiles, per-size buckets, slowdowns), periodic time
// series (throughput, queue length) and fairness indices — everything the
// figure-regeneration harness in internal/exp prints.
package stats

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"

	"mlcc/internal/sim"
)

// FCTSample is one completed flow.
type FCTSample struct {
	Size  int64
	FCT   sim.Time
	Cross bool
	Start sim.Time
}

// FCTCollector accumulates completed flows.
type FCTCollector struct {
	samples []FCTSample
}

// NewFCTCollector returns a collector holding a copy of samples.
func NewFCTCollector(samples ...FCTSample) *FCTCollector {
	return &FCTCollector{samples: append([]FCTSample(nil), samples...)}
}

// Add records one completed flow.
func (c *FCTCollector) Add(s FCTSample) { c.samples = append(c.samples, s) }

// Len reports recorded samples.
func (c *FCTCollector) Len() int { return len(c.samples) }

// Filter selects samples; nil keeps everything.
type Filter func(FCTSample) bool

// Intra keeps intra-datacenter flows.
func Intra(s FCTSample) bool { return !s.Cross }

// Cross keeps cross-datacenter flows.
func Cross(s FCTSample) bool { return s.Cross }

// fcts returns the FCTs passing the filter, unsorted.
func (c *FCTCollector) fcts(f Filter) []sim.Time {
	var out []sim.Time
	for _, s := range c.samples {
		if f == nil || f(s) {
			out = append(out, s.FCT)
		}
	}
	return out
}

// count reports samples passing the filter.
func (c *FCTCollector) count(f Filter) int { return len(c.fcts(f)) }

// Avg returns the mean FCT over the filter, or 0 with ok=false when empty.
func (c *FCTCollector) Avg(f Filter) (sim.Time, bool) {
	sel := c.fcts(f)
	if len(sel) == 0 {
		return 0, false
	}
	var sum int64
	for _, v := range sel {
		sum += int64(v)
	}
	return sim.Time(sum / int64(len(sel))), true
}

// Percentile returns the p-quantile (0 < p <= 1) FCT over the filter using
// the nearest-rank method, or 0 with ok=false when the selection is empty or
// p is outside the domain. The negated comparison rejects NaN too — NaN
// passes every ordering test, and silently clamping it to a rank would
// report a quantile that was never asked for.
func (c *FCTCollector) Percentile(f Filter, p float64) (sim.Time, bool) {
	if !(p > 0 && p <= 1) {
		return 0, false
	}
	sel := c.fcts(f)
	if len(sel) == 0 {
		return 0, false
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i] < sel[j] })
	idx := int(math.Ceil(p*float64(len(sel)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sel) {
		idx = len(sel) - 1
	}
	return sel[idx], true
}

// Bucket is a half-open flow-size interval [Lo, Hi).
type Bucket struct {
	lo, hi int64
	Label  string
}

// DefaultBuckets mirror the size axis of the paper's Fig. 13/14 tail-FCT
// plots: the interesting boundary is 5 MB, where MLCC's cross-DC behaviour
// crosses over.
func DefaultBuckets() []Bucket {
	return []Bucket{
		{0, 10 << 10, "<10KB"},
		{10 << 10, 100 << 10, "10K-100K"},
		{100 << 10, 1 << 20, "100K-1M"},
		{1 << 20, 5 << 20, "1M-5M"},
		{5 << 20, 1 << 62, ">5M"},
	}
}

// BucketRow is one per-bucket summary line.
type BucketRow struct {
	Count int
	P999  sim.Time
}

// ByBucket summarizes FCT per size bucket under an extra filter.
func (c *FCTCollector) ByBucket(extra Filter, buckets []Bucket) []BucketRow {
	rows := make([]BucketRow, 0, len(buckets))
	for _, b := range buckets {
		f := func(s FCTSample) bool { return (extra == nil || extra(s)) && s.Size >= b.lo && s.Size < b.hi }
		row := BucketRow{Count: c.count(f)}
		row.P999, _ = c.Percentile(f, 0.999)
		rows = append(rows, row)
	}
	return rows
}

// String renders a compact human-readable summary.
func (c *FCTCollector) String() string {
	avgI, _ := c.Avg(Intra)
	avgC, _ := c.Avg(Cross)
	return fmt.Sprintf("flows=%d intraAvg=%v crossAvg=%v", c.Len(), avgI, avgC)
}

// JainIndex computes Jain's fairness index over per-entity rates: 1.0 means
// perfectly fair, 1/n means one entity hogs everything.
func JainIndex(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, r := range rates {
		sum += r
		sumsq += r * r
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(rates)) * sumsq)
}

// WriteCSV dumps every sample as CSV: size_bytes,fct_us,cross,start_us.
func (c *FCTCollector) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "size_bytes,fct_us,cross,start_us"); err != nil {
		return err
	}
	for _, s := range c.samples {
		cross := 0
		if s.Cross {
			cross = 1
		}
		if _, err := fmt.Fprintf(bw, "%d,%.3f,%d,%.3f\n", s.Size, s.FCT.Micros(), cross, s.Start.Micros()); err != nil {
			return err
		}
	}
	return bw.Flush()
}
