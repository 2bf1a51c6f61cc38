// Package spec is the one description of a simulation run, its one build
// and its one run path: a Config names the algorithm, shape, workload,
// planes and run length; Resolve fills in every default, Read decodes one
// from a run manifest, Build turns it into a network with its flows
// registered, and Built.Run drives that network to its deadline and records
// it. mlcc.Run, every figure cell of internal/exp and the determinism digest
// build and run through them (mlcc.NewNetwork only builds), so each of their
// runs replays from its resolved Config.
package spec

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"mlcc/internal/audit"
	"mlcc/internal/fault"
	"mlcc/internal/guard"
	"mlcc/internal/host"
	"mlcc/internal/metrics"
	"mlcc/internal/scenario"
	"mlcc/internal/sim"
	"mlcc/internal/topo"
	"mlcc/internal/workload"
)

// Config describes one run on the two-DC fabric or the §4.6 dumbbell. Its
// tags are the run-spec schema: a run manifest's "config" is the resolved
// Config, which Read reads back, so every manifest replays its run
// (mlccsim -spec).
type Config struct {
	// Algorithm is one of topo.Algorithms() or an MLCC ablation
	// (topo.AblationAlgorithms()); default "mlcc".
	Algorithm string `json:"algorithm"`
	// Workload is the flow-size distribution, "websearch" (default) or
	// "hadoop".
	Workload string `json:"workload"`

	// IntraLoad is the intra-DC offered load as a fraction of per-host
	// bisection capacity; CrossLoad is the cross-DC offered load as a
	// fraction of the long-haul link capacity. Both zero generates nothing:
	// the flows are then Flows, the Scenario's, or placed by hand on the
	// built network.
	IntraLoad float64 `json:"intra_load"`
	CrossLoad float64 `json:"cross_load"`

	// Duration is the arrival window (default 5 ms); the simulation then
	// drains until Deadline (default 20× Duration + 100 ms; scenario runs
	// instead derive the default from the plan's horizon, phase count and
	// long-haul delay so closed-loop collectives have room to drain).
	Duration sim.Time `json:"duration_us"`
	Deadline sim.Time `json:"deadline_us"`

	// Shape. HostsPerLeaf defaults to 8, or 2 on the dumbbell (the paper's
	// 4:1 setup uses 32). SpinesPerDC and LeavesPerDC default to §4.1's 2
	// and 4, each at most 50; the dumbbell has one ToR and no spine per DC.
	HostsPerLeaf int `json:"hosts_per_leaf"`
	SpinesPerDC  int `json:"spines_per_dc"`
	LeavesPerDC  int `json:"leaves_per_dc"`

	// HostRate is the server NIC rate: 25 Gbps, or the testbed's 100 Gbps
	// on the dumbbell.
	HostRate sim.Rate `json:"host_rate_bps"`

	// LongHaulDelay is the inter-DC propagation delay; zero means 3 ms.
	LongHaulDelay sim.Time `json:"longhaul_us"`

	// Theta is the DQM update period θ at the receiver-side DCIs (default
	// 18 ms).
	Theta sim.Time `json:"theta_us"`

	// RTOMax caps the go-back-N retransmission timeout's exponential backoff
	// (default 100 ms); MaxRetrans is the consecutive-timeout budget before
	// a sender aborts its flow (default 16).
	RTOMax     sim.Time `json:"rto_max_us"`
	MaxRetrans int      `json:"max_retrans"`

	// DisablePFC runs the fabric in drop mode: no switch sends PFC pauses.
	DisablePFC bool `json:"disable_pfc,omitempty"`

	// Dumbbell selects the §4.6 testbed preset of the two-DC fabric: no
	// spine, one ToR and two 100G hosts per DC unless set otherwise.
	Dumbbell bool `json:"dumbbell,omitempty"`

	// Flows, when non-empty, replays an explicit trace instead of
	// generating Poisson arrivals from Workload/IntraLoad/CrossLoad (which
	// a run never writes back here: the generator inputs reproduce them).
	Flows []workload.FlowSpec `json:"flows,omitempty"`

	// Scenario, when non-nil, is the whole schedule (exclusive with Flows;
	// the workload fields are ignored): Build binds its collectives,
	// incasts, shuffles and tenants. It is traffic only; WithScenario also
	// shapes the long haul for the canonical kinds that need it.
	Scenario *scenario.Plan `json:"scenario,omitempty"`

	// Fault, when non-nil, injects scripted link, feedback-plane and node
	// faults; link and node names resolve against the topology ("longhaul"
	// is always the inter-DC link). Nil leaves the run fault-free.
	Fault *fault.Plan `json:"fault,omitempty"`

	// Guard, when non-nil, arms the runtime-invariant guard plane (PFC
	// pause-storm watchdog, pause-cycle deadlock detector, progress
	// supervisor that halts a stalled run). It is read-only and ticks at
	// quiescent points, so an untriggered guard leaves the run
	// bit-identical. &guard.Config{} arms it with defaults scaled by the
	// cross-DC RTT.
	Guard *guard.Config `json:"guard,omitempty"`

	// FBWatchdogK arms the per-flow feedback-silence watchdog at K
	// round-trips: a silent flow's pacing rate halves each further silent
	// RTT and recovers once feedback returns. Zero (the default) disarms it,
	// since PFC pauses on µs-RTT flows also silence feedback.
	FBWatchdogK int `json:"fb_watchdog_k,omitempty"`

	// Telemetry, when non-nil, is wired through the whole simulation:
	// instruments, flight recorder, sampling and the run manifest. Nil
	// costs nothing.
	Telemetry *metrics.Telemetry `json:"-"`

	// Audit attaches the end-to-end conservation ledger (internal/audit),
	// which accounts every injected byte against its fate. Off costs
	// nothing; on leaves the run bit-identical.
	Audit bool `json:"audit,omitempty"`

	// Obs, when non-nil, serves the run live (an *obs.Server): Built.Run
	// publishes a snapshot at every quiescent telemetry boundary and at run
	// end, never perturbing the schedule. The caller owns the listener.
	Obs Observer `json:"-"`

	// Shards is the engine count: 1 (0 resolves to 1) or 2, one engine
	// per datacenter under the conservative barrier scheduler with the
	// long haul, which Resolve keeps positive, as lookahead; Resolve
	// rejects any other count. Results are bit-identical either way.
	Shards int `json:"shards"`

	Seed int64 `json:"seed"`
}

// Observer is the method set of *obs.Server a run publishes to; an interface
// so that describing a run does not link net/http into every program.
type Observer interface {
	Attach(n *topo.Network, every sim.Time)
	PublishNetwork(n *topo.Network, running bool)
}

// defaults is §4.1's parameter set: the base of every Build and the source
// of Resolve's shape, rate, delay and DQM defaults.
var defaults = topo.DefaultParams()

// maxSwitchesPerDC bounds SpinesPerDC and LeavesPerDC: each switch tier owns
// a block of 100 node ids shared by both DCs.
const maxSwitchesPerDC = 50

// fillShape sets the zero shape fields to their defaults.
func (c *Config) fillShape() {
	if c.Dumbbell {
		c.HostsPerLeaf = cmp.Or(c.HostsPerLeaf, 2)
		c.LeavesPerDC = cmp.Or(c.LeavesPerDC, 1)
		return
	}
	c.HostsPerLeaf = cmp.Or(c.HostsPerLeaf, 8)
	c.SpinesPerDC = cmp.Or(c.SpinesPerDC, defaults.SpinesPerDC)
	c.LeavesPerDC = cmp.Or(c.LeavesPerDC, defaults.LeavesPerDC)
}

// Hosts is the host count of c's topology, with the shape defaults Resolve
// fills in.
func (c Config) Hosts() int {
	c.fillShape()
	return 2 * c.LeavesPerDC * c.HostsPerLeaf
}

// Resolve returns c with every default filled in, or why c cannot run. For
// r = c.Resolve(), c and r build the same run, r.Resolve() is r, and r is
// the manifest's config.
func (c Config) Resolve() (Config, error) {
	c.Algorithm = cmp.Or(c.Algorithm, topo.AlgMLCC)
	c.Workload = cmp.Or(c.Workload, "websearch")
	if !slices.Contains(topo.Algorithms(), c.Algorithm) && !slices.Contains(topo.AblationAlgorithms(), c.Algorithm) {
		return Config{}, fmt.Errorf("spec: unknown algorithm %q (have %v)", c.Algorithm, topo.Algorithms())
	}
	if _, err := workload.ByName(c.Workload); err != nil {
		return Config{}, err
	}
	if c.Duration <= 0 {
		c.Duration = 5 * sim.Millisecond
	}
	c.fillShape()
	switch {
	case c.HostsPerLeaf < 0 || c.SpinesPerDC < 0 || c.LeavesPerDC < 0:
		return Config{}, fmt.Errorf("spec: negative shape (%d spines, %d leaves, %d hosts per leaf)", c.SpinesPerDC, c.LeavesPerDC, c.HostsPerLeaf)
	case c.Dumbbell && (c.SpinesPerDC != 0 || c.LeavesPerDC != 1 || c.HostsPerLeaf < 2):
		return Config{}, fmt.Errorf("spec: the dumbbell has no spine, one ToR and at least 2 hosts per DC, not %d, %d and %d", c.SpinesPerDC, c.LeavesPerDC, c.HostsPerLeaf)
	case max(c.SpinesPerDC, c.LeavesPerDC) > maxSwitchesPerDC:
		return Config{}, fmt.Errorf("spec: %d spines and %d leaves per DC exceed %d", c.SpinesPerDC, c.LeavesPerDC, maxSwitchesPerDC)
	case c.HostRate < 0 || c.Theta < 0 || c.RTOMax < 0 || c.MaxRetrans < 0:
		return Config{}, fmt.Errorf("spec: negative host rate, θ, RTO cap or retransmission budget")
	case c.Shards < 0 || c.Shards > 2:
		return Config{}, fmt.Errorf("spec: %d shards: the limit is 2, one engine per DC", c.Shards)
	}
	if c.Dumbbell {
		c.HostRate = cmp.Or(c.HostRate, 100*sim.Gbps) // the §4.6 testbed's NICs
	}
	c.HostRate = cmp.Or(c.HostRate, defaults.HostRate)
	c.Theta = cmp.Or(c.Theta, defaults.DQM.Theta)
	c.RTOMax = cmp.Or(c.RTOMax, host.DefaultRTOMax)
	c.MaxRetrans = cmp.Or(c.MaxRetrans, host.DefaultMaxRetrans)
	c.Shards = cmp.Or(c.Shards, 1)
	if c.LongHaulDelay <= 0 {
		c.LongHaulDelay = defaults.LongHaulDelay
	}
	sc := c.Scenario
	if sc != nil {
		if len(c.Flows) > 0 {
			return Config{}, fmt.Errorf("spec: Scenario and Flows are mutually exclusive")
		}
		if err := sc.Validate(); err != nil {
			return Config{}, fmt.Errorf("spec: %w", err)
		}
	}
	if err := c.Fault.Validate(); err != nil {
		return Config{}, fmt.Errorf("spec: %w", err)
	}
	if c.Deadline <= 0 {
		c.Deadline = 20*c.Duration + 100*sim.Millisecond
		if sc != nil {
			// Horizon covers every open-loop instant; each collective phase
			// needs at most a handful of long-haul round trips to drain, so a
			// generous multiple of the phase budget bounds the closed loop.
			c.Deadline = 20*sc.Horizon() + 100*sim.Millisecond +
				sim.Time(32*(sc.MaxPhases()+2))*c.LongHaulDelay
		}
	}
	return c, nil
}

// WithScenario returns c running the canonical scenario of the given kind
// (scenario.Kinds), sized to c's topology and seeded by c.Seed. The spacedc
// kind also reshapes the long haul into a GEO relay's: a 100 ms one-way
// delay unless c sets one, and three events appended to a copy of c.Fault
// (150 µs of jitter from time zero, then a 3 ms blackout at 120 ms). That
// plan keeps c.Fault's seed, or takes c.Seed when c has no plan. A resolved
// config already carries all of this, so a replay applies it once.
func (c Config) WithScenario(kind string) (Config, error) {
	plan, err := scenario.CanonicalPlan(kind, c.Hosts(), c.Seed)
	if err != nil {
		return Config{}, err
	}
	c.Scenario = plan
	if kind != "spacedc" {
		return c, nil
	}
	if c.LongHaulDelay <= 0 {
		c.LongHaulDelay = 100 * sim.Millisecond
	}
	fp := fault.Plan{Seed: c.Seed}
	if c.Fault != nil {
		fp = *c.Fault // every field, so the caller's rules and node events ride along
	}
	fp.Events = append(slices.Clip(fp.Events), // never into the caller's array
		fault.Event{Link: "longhaul", Action: fault.Degrade, Jitter: 150 * sim.Microsecond},
		fault.Event{At: 120 * sim.Millisecond, Link: "longhaul", Action: fault.LinkDown},
		fault.Event{At: 123 * sim.Millisecond, Link: "longhaul", Action: fault.LinkUp},
	)
	c.Fault = &fp
	return c, nil
}

// Read reads a run spec — a run manifest, or a hand-written {"config":
// {…}} — and returns its config, decoded strictly (unknown fields are
// rejected) into a zero Config: a field the spec leaves out takes its
// default. The result is unresolved, so callers may override fields first.
func Read(r io.Reader) (Config, error) {
	var doc struct{ Config json.RawMessage }
	var c Config
	err := json.NewDecoder(r).Decode(&doc)
	if err == nil && doc.Config == nil {
		err = fmt.Errorf(`no "config" object`)
	} else if err == nil {
		dec := json.NewDecoder(bytes.NewReader(doc.Config))
		dec.DisallowUnknownFields()
		err = dec.Decode(&c)
	}
	if err != nil {
		return Config{}, fmt.Errorf("spec: parse: %w", err)
	}
	return c, nil
}

// Built is a Config's network, ready to run: every flow the Config
// describes is registered and its scenario, if any, is bound.
type Built struct {
	// Config is the resolved Config the network was built from.
	Config Config
	Net    *topo.Network
	// Runner is the bound scenario; nil without one.
	Runner *scenario.Runner
	// Flows is the registered open-loop schedule: the trace, the generated
	// workload or the scenario's open-loop flows, in registration order.
	Flows []workload.FlowSpec
}

// Build resolves c and builds its network: the two-DC fabric at c's shape
// (the dumbbell is its spineless one-leaf preset), rates and delays, with
// the algorithm's switch features, c's planes attached, and c's flows
// registered — the scenario bound, the trace replayed, or the workload
// generated. It is the only place outside internal/topo that turns a run
// description into topo.Params.
func (c Config) Build() (*Built, error) {
	c, err := c.Resolve()
	if err != nil {
		return nil, err
	}
	p := defaults
	p.SpinesPerDC, p.LeavesPerDC, p.HostsPerLeaf = c.SpinesPerDC, c.LeavesPerDC, c.HostsPerLeaf
	p.HostRate = c.HostRate
	p.LongHaulDelay = c.LongHaulDelay
	p.DQM.Theta = c.Theta
	p.RTOMax, p.MaxRetrans = c.RTOMax, c.MaxRetrans
	p.PFCEnabled = !c.DisablePFC
	p.Seed = c.Seed
	p.Shards = c.Shards
	p.Telemetry = c.Telemetry
	p.FBWatchdogK = c.FBWatchdogK
	p.Guard = c.Guard
	p.Fault = c.Fault
	if c.Audit {
		p.Audit = audit.New()
	}
	p = p.WithAlgorithm(c.Algorithm)
	n := topo.TwoDC(p)
	b := &Built{Config: c, Net: n}
	switch {
	case c.Scenario != nil:
		// Bind validates placement against the built topology, registers
		// every open-loop flow and primes the collectives' first phases.
		if b.Runner, err = scenario.Bind(c.Scenario, n); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		b.Flows = b.Runner.OpenLoop()
		return b, nil
	case len(c.Flows) > 0:
		for _, f := range c.Flows {
			if min(f.Src, f.Dst) < 0 || max(f.Src, f.Dst) >= n.NumHosts() || f.Src == f.Dst || f.Size <= 0 {
				return nil, fmt.Errorf("spec: trace flow %d->%d (%d B) is not a transfer on the %d-host topology", f.Src, f.Dst, f.Size, n.NumHosts())
			}
		}
		b.Flows = c.Flows
	case c.IntraLoad > 0 || c.CrossLoad > 0:
		cdf, _ := workload.ByName(c.Workload) // Resolve checked the name
		if b.Flows, err = Generate(n, cdf, c.IntraLoad, c.CrossLoad, c.Duration, c.Seed); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
	}
	for _, fs := range b.Flows {
		n.AddFlow(fs.Src, fs.Dst, fs.Size, fs.Start)
	}
	return b, nil
}

// Generate draws Poisson arrivals from cdf at the given intra- and cross-DC
// loads over the arrival window, sized to n's host count and rates.
func Generate(n *topo.Network, cdf *workload.CDF, intra, cross float64, window sim.Time, seed int64) ([]workload.FlowSpec, error) {
	return workload.Generate(workload.Spec{
		CDF: cdf, IntraLoad: intra, CrossLoad: cross,
		HostRate: n.P.HostRate, IntraRate: n.PerHostBisection(), CrossRate: n.P.FabricRate,
		Hosts: n.NumHosts(), Duration: window, Seed: seed,
	})
}
