package stats

import (
	"fmt"
	"strings"

	"mlcc/internal/sim"
)

// TenantSet partitions FCT samples by tenant (workload-component tag) and
// summarizes each partition independently: per-tenant FCT percentiles,
// completed-byte throughput and a Jain fairness index across tenants. A
// tenant here is any named traffic source sharing the fabric — a
// multi-tenant workload.Spec, a collective, an incast — so a blackout that
// aborts one tenant's flows can never leak into another tenant's
// distribution: an aborted flow is a count in its own tenant, never a sample.
//
// Fill it post-run in flow-ID order (the shard-safe collection pattern every
// harness uses); TenantSet itself is not goroutine-safe.
type TenantSet struct {
	order   []string
	byName  map[string]*FCTCollector
	aborted map[string]int
}

// NewTenantSet returns an empty set.
func NewTenantSet() *TenantSet {
	return &TenantSet{byName: make(map[string]*FCTCollector), aborted: make(map[string]int)}
}

// Add records one completed flow under the tenant's name. Unnamed flows
// ("") are kept under the pseudo-tenant "untagged" so nothing is silently
// dropped.
func (ts *TenantSet) Add(tenant string, s FCTSample) { ts.byName[ts.register(tenant)].Add(s) }

// Abort counts one aborted flow under the tenant's name, named as Add names
// it.
func (ts *TenantSet) Abort(tenant string) { ts.aborted[ts.register(tenant)]++ }

// register returns the tenant's name ("untagged" for ""), adding the tenant
// on first use.
func (ts *TenantSet) register(tenant string) string {
	if tenant == "" {
		tenant = "untagged"
	}
	if _, ok := ts.byName[tenant]; !ok {
		ts.byName[tenant] = NewFCTCollector()
		ts.order = append(ts.order, tenant)
	}
	return tenant
}

// Names lists tenants in first-add order — deterministic when flows are
// added in flow-ID order.
func (ts *TenantSet) Names() []string {
	return append([]string(nil), ts.order...)
}

// collector returns the tenant's collector, or an empty one for unknown
// names (so lookups compose with Avg/Percentile without nil checks).
func (ts *TenantSet) collector(tenant string) *FCTCollector {
	if col, ok := ts.byName[tenant]; ok {
		return col
	}
	return NewFCTCollector()
}

// CompletedBytes sums the sizes of the tenant's completed flows.
func (ts *TenantSet) CompletedBytes(tenant string) int64 {
	var b int64
	for _, s := range ts.collector(tenant).samples {
		b += s.Size
	}
	return b
}

// Aborts counts the tenant's aborted flows.
func (ts *TenantSet) Aborts(tenant string) int { return ts.aborted[tenant] }

// Completed counts the tenant's completed flows.
func (ts *TenantSet) Completed(tenant string) int { return ts.collector(tenant).Len() }

// Percentile returns the tenant's p-quantile FCT.
func (ts *TenantSet) Percentile(tenant string, p float64) (sim.Time, bool) {
	return ts.collector(tenant).Percentile(nil, p)
}

// AvgFCT returns the tenant's mean FCT.
func (ts *TenantSet) AvgFCT(tenant string) (sim.Time, bool) {
	return ts.collector(tenant).Avg(nil)
}

// Fairness returns Jain's index over the tenants' completed-byte totals
// (duration-invariant: a common window divides out of the index). One tenant
// — or zero completed bytes everywhere — yields the degenerate values
// JainIndex defines (1 and 0 respectively).
func (ts *TenantSet) Fairness() float64 {
	rates := make([]float64, 0, len(ts.order))
	for _, name := range ts.order {
		rates = append(rates, float64(ts.CompletedBytes(name)))
	}
	return JainIndex(rates)
}

// String renders a one-line-per-tenant summary.
func (ts *TenantSet) String() string {
	var b strings.Builder
	for i, name := range ts.order {
		if i > 0 {
			b.WriteByte(' ')
		}
		avg, _ := ts.AvgFCT(name)
		fmt.Fprintf(&b, "%s{done=%d aborted=%d bytes=%d avg=%v}",
			name, ts.Completed(name), ts.Aborts(name), ts.CompletedBytes(name), avg)
	}
	return b.String()
}
