package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"mlcc/internal/sim"
)

// FlowSpec is one generated transfer, ready to be registered with a network.
// Tag names the workload component (tenant, collective, incast wave) the flow
// belongs to; "" for untagged single-workload traffic. Tags ride through
// scenario composition into the per-tenant stats collectors; the CSV trace
// format drops them, the JSON form (a run spec's trace) keeps every field.
type FlowSpec struct {
	Src   int      `json:"src"` // host indices
	Dst   int      `json:"dst"`
	Size  int64    `json:"size_bytes"`
	Start sim.Time `json:"start_us"`
	Cross bool     `json:"cross,omitempty"`
	Tag   string   `json:"tag,omitempty"`
}

// Spec configures traffic generation for the two-DC topology.
type Spec struct {
	CDF *CDF

	// IntraLoad is the fraction of each server's line rate consumed by
	// intra-DC traffic. CrossLoad is the fraction of the long-haul (DCI)
	// link capacity consumed by cross-DC traffic per direction — the
	// natural reading of the paper's "cross-DC traffic at 20% load", since
	// per-host cross load at paper scale would oversubscribe the single
	// 100 Gbps inter-DC fiber several times over.
	IntraLoad float64
	CrossLoad float64

	HostRate sim.Rate
	// IntraRate is the per-host capacity IntraLoad is measured against. In
	// oversubscribed fabrics the evaluation convention (as in HPCC) loads
	// the network relative to its bisection: IntraRate = per-host share of
	// leaf uplink capacity, capped at the NIC rate. 0 = HostRate.
	IntraRate sim.Rate
	CrossRate sim.Rate // long-haul link capacity (per direction)
	Hosts     int      // total hosts (even; first half = DC 0)
	Duration  sim.Time
	Seed      int64

	// Tag, when non-empty, stamps every generated FlowSpec (multi-tenant
	// scenario composition uses one Spec per tenant).
	Tag string
}

// validate checks that the spec can drive generation at all. It rejects the
// degenerate inputs Generate used to swallow silently: negative or non-finite
// rates and loads (negative λ made gen produce zero flows with no signal) and
// odd host counts (the first-half-is-DC0 split assigns the odd host to no
// valid cross-DC peer set).
func (spec Spec) validate() error {
	if spec.CDF == nil {
		return fmt.Errorf("workload: spec has no CDF")
	}
	if !(spec.CDF.mean() > 0) {
		return fmt.Errorf("workload: CDF %q has non-positive mean size", spec.CDF.name)
	}
	if spec.Hosts < 2 {
		return fmt.Errorf("workload: %d hosts (need at least 2)", spec.Hosts)
	}
	if spec.Hosts%2 != 0 {
		return fmt.Errorf("workload: odd host count %d (first half = DC 0 needs an even split)", spec.Hosts)
	}
	if spec.Duration <= 0 {
		return fmt.Errorf("workload: non-positive duration %v", spec.Duration)
	}
	if spec.HostRate <= 0 {
		return fmt.Errorf("workload: non-positive host rate %v", spec.HostRate)
	}
	if spec.IntraRate < 0 {
		return fmt.Errorf("workload: negative intra rate %v", spec.IntraRate)
	}
	if spec.CrossRate < 0 {
		return fmt.Errorf("workload: negative cross rate %v", spec.CrossRate)
	}
	for _, l := range []struct {
		name string
		v    float64
	}{{"intra", spec.IntraLoad}, {"cross", spec.CrossLoad}} {
		if math.IsNaN(l.v) || math.IsInf(l.v, 0) || l.v < 0 {
			return fmt.Errorf("workload: %s load %v (want a finite fraction >= 0)", l.name, l.v)
		}
	}
	return nil
}

// Generate produces the open-loop flow arrivals for spec: every host runs
// two independent Poisson processes (intra and cross), flow sizes are i.i.d.
// from the CDF, intra destinations are uniform among other same-DC hosts and
// cross destinations uniform in the other DC. Flows are returned in the
// canonical deterministic order of SortFlows — globally sorted by (Start,
// Src, Dst, Size, Tag, Cross) — so independently generated lists merge into one
// schedule without any ordering surprises. Invalid specs return an error
// (they used to yield an empty list indistinguishable from zero load); both
// loads zero is valid and produces no flows.
func Generate(spec Spec) ([]FlowSpec, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed*0x9e3779b9 + 1))
	mean := spec.CDF.mean() // bytes
	perDC := spec.Hosts / 2

	// Per-host arrival rates in flows/sec, so that mean bytes × arrival rate
	// = load × capacity/8; 0 turns a process off.
	crossRate, intraRate := spec.rates()
	var intraLambda, crossLambda float64
	// A single-host DC has no intra destination: the uniform draw over other
	// same-DC hosts would retry forever.
	if spec.IntraLoad > 0 && perDC >= 2 {
		intraLambda = spec.IntraLoad * float64(intraRate) / 8 / mean
	}
	if spec.CrossLoad > 0 {
		// Each DC's senders collectively fill load×crossRate.
		crossLambda = spec.CrossLoad * float64(crossRate) / 8 / mean / float64(perDC)
	}
	var out []FlowSpec
	if expect := float64(spec.Hosts) * (intraLambda + crossLambda) * spec.Duration.Seconds(); expect < 1<<20 {
		// Poisson counts sit within a few standard deviations of the mean; a
		// larger (or infinite) expectation grows as the flows come.
		out = make([]FlowSpec, 0, int(expect+4*math.Sqrt(expect))+1)
	}

	for h := 0; h < spec.Hosts; h++ {
		gen := func(lambda float64, cross bool) {
			if !(lambda > 0) || math.IsInf(lambda, 0) {
				return
			}
			t := sim.Time(0)
			for {
				// Exponential inter-arrival.
				gap := -math.Log(1-rng.Float64()) / lambda
				t += sim.FromSeconds(gap)
				if t >= spec.Duration {
					return
				}
				dst := h
				if cross {
					if h < perDC {
						dst = perDC + rng.Intn(perDC)
					} else {
						dst = rng.Intn(perDC)
					}
				} else {
					base := 0
					if h >= perDC {
						base = perDC
					}
					for dst == h {
						dst = base + rng.Intn(perDC)
					}
				}
				out = append(out, FlowSpec{
					Src:   h,
					Dst:   dst,
					Size:  spec.CDF.sample(rng),
					Start: t,
					Cross: cross,
					Tag:   spec.Tag,
				})
			}
		}
		gen(intraLambda, false)
		gen(crossLambda, true)
	}
	SortFlows(out)
	return out, nil
}

// SortFlows puts flows into the canonical deterministic schedule order:
// sorted by the total key (Start, Src, Dst, Size, Tag, Cross). Flows equal
// in every key are identical values, so any correct sort's order is the
// stable sort's. Registering flows in this order is what makes flow-ID
// assignment — and therefore ECMP routing and determinism digests — a pure
// function of the flow set, independent of how many generated lists were
// concatenated to produce it.
//
// Arrivals spread over their window, so the flows are distributed into
// len(flows) buckets by Start over its [min, max] span, then each bucket is
// sorted by the full key: expected linear time, and O(n log n) at worst
// (an incast wave, every flow at one Start, is one bucket). The bucket
// index is computed in float64: monotone in Start, with no overflow at any
// sim.Time.
func SortFlows(flows []FlowSpec) {
	n := len(flows)
	if n < 2 {
		return
	}
	lo, hi := flows[0].Start, flows[0].Start
	for i := range flows {
		lo, hi = min(lo, flows[i].Start), max(hi, flows[i].Start)
	}
	var scale float64 // 0 puts every flow in bucket 0
	if span := float64(hi) - float64(lo); span > 0 {
		scale = float64(n-1) / span
	}
	bucket := func(t sim.Time) int32 { return int32(min(int((float64(t)-float64(lo))*scale), n-1)) }
	// bounds first counts each bucket one slot up; its prefix sums then make
	// bounds[b] where bucket b begins and bounds[n] = n. next[b] is the
	// first slot of bucket b not yet holding one of its own.
	buf := make([]int32, 2*n+1)
	bounds, next := buf[:n+1], buf[n+1:]
	for i := range flows {
		bounds[bucket(flows[i].Start)+1]++
	}
	for b := 1; b <= n; b++ {
		bounds[b] += bounds[b-1]
	}
	copy(next, bounds)
	// Distribute in place: every swap moves one flow into its bucket for good.
	for b := range int32(n) {
		for next[b] < bounds[b+1] {
			i := next[b]
			if c := bucket(flows[i].Start); c != b {
				flows[i], flows[next[c]] = flows[next[c]], flows[i]
				next[c]++
			} else {
				next[b]++
			}
		}
	}
	for b := range n {
		if bounds[b+1]-bounds[b] > 1 {
			slices.SortFunc(flows[bounds[b]:bounds[b+1]], compareFlows)
		}
	}
}

// compareFlows is the canonical total order on FlowSpec.
func compareFlows(a, b FlowSpec) int {
	switch {
	case a.Start != b.Start:
		return cmp.Compare(a.Start, b.Start)
	case a.Src != b.Src:
		return cmp.Compare(a.Src, b.Src)
	case a.Dst != b.Dst:
		return cmp.Compare(a.Dst, b.Dst)
	case a.Size != b.Size:
		return cmp.Compare(a.Size, b.Size)
	case a.Tag != b.Tag:
		return strings.Compare(a.Tag, b.Tag)
	case a.Cross == b.Cross:
		return 0
	case b.Cross:
		return -1
	}
	return 1
}

// MergeFlows concatenates several flow lists into one schedule in the
// canonical SortFlows order, leaving the inputs untouched.
func MergeFlows(lists ...[]FlowSpec) []FlowSpec {
	var total int
	for _, l := range lists {
		total += len(l)
	}
	out := make([]FlowSpec, 0, total)
	for _, l := range lists {
		out = append(out, l...)
	}
	SortFlows(out)
	return out
}

// rates resolves the capacities loads are measured against, applying the
// same defaults Generate uses: CrossRate 0 falls back to the NIC rate, and
// IntraRate is capped at the NIC rate (a host cannot offer more than it can
// serialize).
func (spec Spec) rates() (crossRate, intraRate sim.Rate) {
	crossRate = spec.CrossRate
	if crossRate == 0 {
		crossRate = spec.HostRate
	}
	intraRate = spec.IntraRate
	if intraRate == 0 || intraRate > spec.HostRate {
		intraRate = spec.HostRate
	}
	return crossRate, intraRate
}
