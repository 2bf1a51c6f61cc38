// Package scenario composes named workload components — ML-collective ring
// all-reduce phases, N→1 incasts, all-to-all shuffles and multi-tenant
// Poisson mixes — into one deterministic flow schedule for the two-DC
// topology. A scenario is traffic only: the long haul and its faults belong
// to the run (spec.Config.LongHaulDelay and Fault).
//
// A Plan is declarative and seeded, like a fault.Plan: the same plan bound to
// the same build yields bit-identical simulations on any engine count. Open-loop
// components (incasts, shuffles, tenants) expand into workload.FlowSpecs
// merged in the canonical SortFlows order and registered before the run.
// Collectives are closed-loop: each all-reduce phase is a ring of tensor
// flows, and the next phase starts only after every flow of the current one
// has finished or aborted. A quiescent poll reads the phase's flow flags and
// registers the next phase with every engine parked (see Runner), so
// boundaries, flow states and registration order — and with them the
// determinism digests — do not depend on the engine count.
//
// Plans have a JSON form (µs-grid, unknown-field-rejecting, byte-stable
// round-trip; see ReadPlan) mirroring the fault-plan schema.
package scenario

import (
	"fmt"
	"math"

	"mlcc/internal/sim"
	"mlcc/internal/workload"
)

// defaultPoll is the collective barrier poll interval when Plan.Poll is zero:
// fine enough that a phase gap is dominated by transfer time, coarse enough
// that quiescent pauses stay negligible.
const defaultPoll = 100 * sim.Microsecond

// Plan is one composed scenario. The zero value is invalid (a plan must name
// at least one component); construct by hand, via CanonicalPlan, or ReadPlan.
type Plan struct {
	// Seed drives every random process in the plan (tenant Poisson arrivals
	// and sizes); each tenant draws from Seed XORed with a stable hash of
	// its name, so adding a tenant never perturbs another's trace.
	Seed int64 `json:"seed,omitempty"`

	// Name labels the scenario in reports and manifests.
	Name string `json:"name,omitempty"`

	// Poll is the collective barrier poll interval (0 = 100 µs). Only
	// plans with collectives install the quiescent hook.
	Poll sim.Time `json:"poll_us,omitempty"`

	Collectives []Collective `json:"collectives,omitempty"`
	Incasts     []Incast     `json:"incasts,omitempty"`
	Shuffles    []Shuffle    `json:"shuffles,omitempty"`
	Tenants     []Tenant     `json:"tenants,omitempty"`
}

// Collective is a closed-loop ring all-reduce: Workers hosts arranged in a
// ring run Phases rounds, each round sending Tensor bytes from every worker i
// to worker (i+1) mod W concurrently, with a barrier between rounds — round
// p+1 starts Gap after the last flow of round p completes. (A W-worker ring
// all-reduce is 2(W−1) such rounds; Phases is explicit so plans can scale the
// round count independently of the ring size.)
type Collective struct {
	Name string `json:"name"`

	// Workers places the ring on the default interleaved layout: worker k on
	// host k/2 of DC k%2, so every ring hop crosses the long haul when W is
	// even. Hosts, when non-empty, overrides placement explicitly (Workers
	// must then be 0 or len(Hosts)).
	Workers int   `json:"workers,omitempty"`
	Hosts   []int `json:"hosts,omitempty"`

	Tensor int64    `json:"tensor_bytes"`       // bytes per worker per phase
	Phases int      `json:"phases"`             // barrier-separated rounds
	Start  sim.Time `json:"start_us,omitempty"` // first phase launch
	Gap    sim.Time `json:"gap_us,omitempty"`   // barrier-to-next-phase delay (must be > 0: the next phase is scheduled strictly after the barrier poll that observed completion)
}

// workerCount resolves the ring size.
func (c Collective) workerCount() int {
	if len(c.Hosts) > 0 {
		return len(c.Hosts)
	}
	return c.Workers
}

// Incast is an open-loop N→1 burst: FanIn senders each push Bytes to Dst at
// the same instant, repeated Waves times every Interval. Senders are the
// lowest-indexed hosts of Dst's own DC (Cross false) or of the opposite DC
// (Cross true), skipping Dst itself.
type Incast struct {
	Name     string   `json:"name"`
	Dst      int      `json:"dst"`
	FanIn    int      `json:"fan_in"`
	Bytes    int64    `json:"bytes"`
	Start    sim.Time `json:"start_us,omitempty"`
	Waves    int      `json:"waves"`
	Interval sim.Time `json:"interval_us,omitempty"`
	Cross    bool     `json:"cross,omitempty"`
}

// Shuffle is an open-loop all-to-all: every ordered worker pair (i, j), i≠j,
// carries one Bytes-sized flow, with sender i's flows starting at
// Start + i·Stagger. Placement follows the collective rules.
type Shuffle struct {
	Name    string   `json:"name"`
	Workers int      `json:"workers,omitempty"`
	Hosts   []int    `json:"hosts,omitempty"`
	Bytes   int64    `json:"bytes"`
	Start   sim.Time `json:"start_us,omitempty"`
	Stagger sim.Time `json:"stagger_us,omitempty"`
}

// workerCount resolves the shuffle width.
func (s Shuffle) workerCount() int {
	if len(s.Hosts) > 0 {
		return len(s.Hosts)
	}
	return s.Workers
}

// Tenant is one open-loop Poisson mix sharing the fabric under its own name:
// a workload.Spec with the plan's topology capacities filled in at bind time.
// Flows are tagged with the tenant name and reported per tenant.
type Tenant struct {
	Name      string   `json:"name"`
	Workload  string   `json:"workload"` // workload.ByName: "websearch" | "hadoop"
	IntraLoad float64  `json:"intra_load,omitempty"`
	CrossLoad float64  `json:"cross_load,omitempty"`
	Start     sim.Time `json:"start_us,omitempty"` // arrival-window offset
	Duration  sim.Time `json:"duration_us"`        // arrival-window length
}

// Components returns every component name in declaration order
// (collectives, incasts, shuffles, tenants) — the report ordering for
// per-tenant statistics.
func (p *Plan) Components() []string {
	var out []string
	for _, c := range p.Collectives {
		out = append(out, c.Name)
	}
	for _, i := range p.Incasts {
		out = append(out, i.Name)
	}
	for _, s := range p.Shuffles {
		out = append(out, s.Name)
	}
	for _, t := range p.Tenants {
		out = append(out, t.Name)
	}
	return out
}

// checkPlacement validates an explicit-or-default worker placement.
func checkPlacement(what, name string, workers int, hosts []int) error {
	if len(hosts) > 0 {
		if workers != 0 && workers != len(hosts) {
			return fmt.Errorf("scenario: %s %q: workers %d contradicts %d explicit hosts", what, name, workers, len(hosts))
		}
		seen := make(map[int]bool, len(hosts))
		for _, h := range hosts {
			if h < 0 {
				return fmt.Errorf("scenario: %s %q: negative host %d", what, name, h)
			}
			if seen[h] {
				return fmt.Errorf("scenario: %s %q: duplicate host %d", what, name, h)
			}
			seen[h] = true
		}
		workers = len(hosts)
	}
	if workers < 2 {
		return fmt.Errorf("scenario: %s %q: %d workers (need at least 2)", what, name, workers)
	}
	return nil
}

// Validate checks the plan's internal consistency. Host-index bounds are
// topology-dependent and checked by Bind.
func (p *Plan) Validate() error {
	if p.Poll < 0 {
		return fmt.Errorf("scenario: negative poll interval %v", p.Poll)
	}
	names := p.Components()
	if len(names) == 0 {
		return fmt.Errorf("scenario: plan has no components")
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if name == "" {
			return fmt.Errorf("scenario: component with empty name")
		}
		if seen[name] {
			return fmt.Errorf("scenario: duplicate component name %q", name)
		}
		seen[name] = true
	}
	for _, c := range p.Collectives {
		if err := checkPlacement("collective", c.Name, c.Workers, c.Hosts); err != nil {
			return err
		}
		if c.Tensor <= 0 {
			return fmt.Errorf("scenario: collective %q: non-positive tensor size %d", c.Name, c.Tensor)
		}
		if c.Phases < 1 {
			return fmt.Errorf("scenario: collective %q: %d phases (need at least 1)", c.Name, c.Phases)
		}
		if c.Start < 0 {
			return fmt.Errorf("scenario: collective %q: negative start %v", c.Name, c.Start)
		}
		if c.Phases > 1 && c.Gap <= 0 {
			return fmt.Errorf("scenario: collective %q: multi-phase ring needs a positive gap (got %v)", c.Name, c.Gap)
		}
		if c.Gap < 0 {
			return fmt.Errorf("scenario: collective %q: negative gap %v", c.Name, c.Gap)
		}
	}
	for _, in := range p.Incasts {
		if in.Dst < 0 {
			return fmt.Errorf("scenario: incast %q: negative destination %d", in.Name, in.Dst)
		}
		if in.FanIn < 1 {
			return fmt.Errorf("scenario: incast %q: fan-in %d (need at least 1)", in.Name, in.FanIn)
		}
		if in.Bytes <= 0 {
			return fmt.Errorf("scenario: incast %q: non-positive size %d", in.Name, in.Bytes)
		}
		if in.Waves < 1 {
			return fmt.Errorf("scenario: incast %q: %d waves (need at least 1)", in.Name, in.Waves)
		}
		if in.Start < 0 || in.Interval < 0 {
			return fmt.Errorf("scenario: incast %q: negative time (start %v, interval %v)", in.Name, in.Start, in.Interval)
		}
		if in.Waves > 1 && in.Interval <= 0 {
			return fmt.Errorf("scenario: incast %q: multi-wave burst needs a positive interval", in.Name)
		}
	}
	for _, s := range p.Shuffles {
		if err := checkPlacement("shuffle", s.Name, s.Workers, s.Hosts); err != nil {
			return err
		}
		if s.Bytes <= 0 {
			return fmt.Errorf("scenario: shuffle %q: non-positive size %d", s.Name, s.Bytes)
		}
		if s.Start < 0 || s.Stagger < 0 {
			return fmt.Errorf("scenario: shuffle %q: negative time (start %v, stagger %v)", s.Name, s.Start, s.Stagger)
		}
	}
	for _, t := range p.Tenants {
		if _, err := workload.ByName(t.Workload); err != nil {
			return fmt.Errorf("scenario: tenant %q: %w", t.Name, err)
		}
		for _, l := range []struct {
			what string
			v    float64
		}{{"intra", t.IntraLoad}, {"cross", t.CrossLoad}} {
			if math.IsNaN(l.v) || math.IsInf(l.v, 0) || l.v < 0 {
				return fmt.Errorf("scenario: tenant %q: %s load %v (want a finite fraction >= 0)", t.Name, l.what, l.v)
			}
		}
		if t.Start < 0 {
			return fmt.Errorf("scenario: tenant %q: negative start %v", t.Name, t.Start)
		}
		if t.Duration <= 0 {
			return fmt.Errorf("scenario: tenant %q: non-positive duration %v", t.Name, t.Duration)
		}
	}
	return nil
}

// pollInterval resolves the barrier poll interval.
func (p *Plan) pollInterval() sim.Time {
	if p.Poll > 0 {
		return p.Poll
	}
	return defaultPoll
}

// Horizon is the latest scheduled open-loop instant of the plan: the last
// incast wave, shuffle launch, tenant arrival-window end and collective
// phase-zero start. Closed-loop phases extend past it by transfer and barrier
// time, so run deadlines should add drain headroom on top (mlcc.Run scales
// the headroom by the long-haul delay).
func (p *Plan) Horizon() sim.Time {
	var h sim.Time
	bump := func(t sim.Time) {
		if t > h {
			h = t
		}
	}
	for _, c := range p.Collectives {
		bump(c.Start + sim.Time(c.Phases-1)*c.Gap)
	}
	for _, in := range p.Incasts {
		bump(in.Start + sim.Time(in.Waves-1)*in.Interval)
	}
	for _, s := range p.Shuffles {
		bump(s.Start + sim.Time(s.workerCount()-1)*s.Stagger)
	}
	for _, t := range p.Tenants {
		bump(t.Start + t.Duration)
	}
	return h
}

// MaxPhases is the largest collective phase count (0 with no collectives) —
// the factor deadline heuristics multiply the RTT by.
func (p *Plan) MaxPhases() int {
	m := 0
	for _, c := range p.Collectives {
		if c.Phases > m {
			m = c.Phases
		}
	}
	return m
}

// stableHash is FNV-1a over a component name — the per-tenant sub-seed salt
// (same construction the fault layer uses for per-link PRNG streams).
func stableHash(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return int64(h)
}

// subSeed is the seed tenant name draws its Poisson processes from.
func (p *Plan) subSeed(name string) int64 { return p.Seed ^ stableHash(name) }

// Kinds lists the canonical scenario kinds of the acceptance matrix, in
// report order.
func Kinds() []string { return []string{"collective", "incast", "tenants", "spacedc"} }

// CanonicalPlan builds the pinned acceptance scenario of the given kind,
// sized for a topology with hosts hosts (even, ≥ 8 recommended). These are
// the plans the "scenario" figure and the determinism-digest gates run.
// spacedc's 100 ms haul, jitter and outage are not traffic, so its plan
// lacks them; spec.Config.WithScenario adds them to the run.
func CanonicalPlan(kind string, hosts int, seed int64) (*Plan, error) {
	if hosts < 4 || hosts%2 != 0 {
		return nil, fmt.Errorf("scenario: canonical plans need an even host count >= 4 (got %d)", hosts)
	}
	workers := hosts
	if workers > 8 {
		workers = 8
	}
	fanIn := hosts/2 - 1
	if fanIn > 4 {
		fanIn = 4
	}
	switch kind {
	case "collective":
		return &Plan{
			Seed: seed,
			Name: "collective",
			Collectives: []Collective{
				{Name: "ring", Workers: workers, Tensor: 64 << 10, Phases: 4, Gap: 5 * sim.Microsecond},
			},
			Tenants: []Tenant{
				{Name: "bg", Workload: "websearch", IntraLoad: 0.1, Duration: 2 * sim.Millisecond},
			},
		}, nil
	case "incast":
		return &Plan{
			Seed: seed,
			Name: "incast",
			Incasts: []Incast{
				{Name: "burst", Dst: 0, FanIn: fanIn, Bytes: 64 << 10, Waves: 2, Interval: 500 * sim.Microsecond},
				{Name: "far-burst", Dst: 0, FanIn: fanIn, Bytes: 64 << 10, Start: 200 * sim.Microsecond, Waves: 1, Cross: true},
			},
			Shuffles: []Shuffle{
				{Name: "shuffle", Workers: workers, Bytes: 32 << 10, Start: sim.Millisecond, Stagger: 10 * sim.Microsecond},
			},
		}, nil
	case "tenants":
		return &Plan{
			Seed: seed,
			Name: "tenants",
			Tenants: []Tenant{
				{Name: "web", Workload: "websearch", IntraLoad: 0.3, CrossLoad: 0.1, Duration: 2 * sim.Millisecond},
				{Name: "batch", Workload: "hadoop", IntraLoad: 0.15, CrossLoad: 0.05, Duration: 2 * sim.Millisecond},
			},
		}, nil
	case "spacedc":
		return &Plan{
			Seed: seed,
			Name: "spacedc",
			Poll: sim.Millisecond,
			Collectives: []Collective{
				{Name: "relay-ring", Workers: 4, Tensor: 32 << 10, Phases: 2, Gap: 10 * sim.Microsecond},
			},
			Tenants: []Tenant{
				{Name: "bulk", Workload: "websearch", CrossLoad: 0.1, Duration: 5 * sim.Millisecond},
			},
		}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown canonical kind %q (have %v)", kind, Kinds())
	}
}
