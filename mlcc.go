// Package mlcc is the public API of this repository: a from-scratch Go
// reproduction of "Efficient Cross-Datacenter Congestion Control with Fast
// Control Loops" (ICPP 2025).
//
// MLCC (Micro Loop Congestion Control) splits the long cross-datacenter
// control loop into three fast loops — a near-source loop fed by Switch-INT
// reflection at the sender-side DCI switch, a receiver-driven credit loop
// controlling per-flow queue (PFQ) dequeue rates at the receiver-side DCI
// switch, and an end-to-end loop carrying the DQM queue-management rate —
// and paces each flow at R_MLCC = min(R_NS, R̄_DQM).
//
// The package wraps a deterministic packet-level network simulator
// (internal/sim, internal/fabric, internal/host, internal/dci) providing the
// substrate the paper evaluates on: a two-datacenter spine-leaf fabric with
// PFC, ECN, INT telemetry and deep-buffered DCI switches, plus the DCQCN,
// Timely, HPCC and PowerTCP baselines.
//
// Quick start:
//
//	res, err := mlcc.Run(mlcc.Config{
//		Algorithm: "mlcc",
//		Workload:  "websearch",
//		IntraLoad: 0.5,
//		CrossLoad: 0.2,
//		Duration:  5 * mlcc.Millisecond,
//	})
//	fmt.Println(res.AvgFCTIntra, res.AvgFCTCross)
//
// For scripted reproduction of every figure in the paper's evaluation see
// cmd/mlccfig and the Experiments function.
package mlcc

import (
	"fmt"
	"io"

	"mlcc/internal/exp"
	"mlcc/internal/fault"
	"mlcc/internal/guard"
	"mlcc/internal/host"
	"mlcc/internal/metrics"
	"mlcc/internal/obs"
	"mlcc/internal/scenario"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
	"mlcc/internal/workload"
)

// FaultPlan re-exports the fault-injection plan: deterministic, seeded link
// faults (flaps, degradation, Bernoulli loss) applied to named topology
// links. Attach one to Config.Fault. See DESIGN.md, "Fault model".
type FaultPlan = fault.Plan

// FaultEvent is one timed link-state change in a FaultPlan.
type FaultEvent = fault.Event

// FaultLossRule is one windowed Bernoulli loss rule in a FaultPlan.
type FaultLossRule = fault.LossRule

// Fault-event actions.
const (
	LinkDown = fault.LinkDown // administratively down: wire contents destroyed
	LinkUp   = fault.LinkUp   // restore a downed link
	Degrade  = fault.Degrade  // reduce rate and/or add delay and jitter
	Restore  = fault.Restore  // clear a degradation
)

// FaultNodeEvent is one timed whole-device fault in a FaultPlan: a host
// crash/restart or a switch failure/recovery, addressed by topology node
// name ("host3", "leaf0", "spine1", "dci0").
type FaultNodeEvent = fault.NodeEvent

// FaultNodeAction selects what a FaultNodeEvent does to its node.
type FaultNodeAction = fault.NodeAction

// Node-fault actions.
const (
	HostCrash     = fault.HostCrash     // host dies: in-flight flows park, NIC link cut
	HostRestart   = fault.HostRestart   // host returns: parked transfers resume from the acked prefix
	SwitchFail    = fault.SwitchFail    // switch dies: queues drain to the ledger, every cable cut
	SwitchRecover = fault.SwitchRecover // switch returns: ports restored, buffers empty
)

// FaultFeedbackRule is one windowed reverse-path rule in a FaultPlan: it
// drops, delays/jitters, or corrupts ACK/CNP/Switch-INT frames at the
// matched hosts' feedback ingress. Host selectors use the topology
// vocabulary ("host3"; "" or "*" for all hosts).
type FaultFeedbackRule = fault.FeedbackRule

// FaultFBKind selects which feedback kinds a FaultFeedbackRule applies to.
type FaultFBKind = fault.FBKind

// Feedback kinds for FaultFeedbackRule.Kinds (zero means all).
const (
	FBAck       = fault.FBAck       // cumulative ACKs (and their INT stacks)
	FBCNP       = fault.FBCNP       // DCQCN congestion notifications
	FBSwitchINT = fault.FBSwitchINT // MLCC near-source Switch-INT reflections
	FBAllKinds  = fault.FBAllKinds
)

// FaultCorruptMode selects which INT-stack corruptions a FaultFeedbackRule
// may apply.
type FaultCorruptMode = fault.CorruptMode

// INT corruption modes for FaultFeedbackRule.Modes (zero means all).
const (
	CorruptTruncate = fault.CorruptTruncate // drop records off the stack tail
	CorruptStaleTS  = fault.CorruptStaleTS  // regress one hop's timestamp
	CorruptGarbage  = fault.CorruptGarbage  // garbage QLen/TxBytes/Band on one hop
	CorruptAllModes = fault.CorruptAllModes
)

// GuardConfig tunes the runtime-invariant guard plane (Config.Guard): the
// PFC pause-storm watchdog, the pause-cycle deadlock detector and the global
// progress (stall) supervisor. The zero value means "armed with defaults";
// every field defaults from the topology's cross-DC RTT. See DESIGN.md,
// "Node faults & guard plane".
type GuardConfig = guard.Config

// DefaultFBWatchdogK is the recommended Config.FBWatchdogK when running
// under feedback faults: conservative enough to ride out transient
// congestion-induced feedback gaps, fast enough to decay well before the
// retransmission budget is at risk.
const DefaultFBWatchdogK = host.DefaultWatchdogK

// ReadFaultPlan parses a fault plan from its JSON form (see EXPERIMENTS.md
// for the format) and validates it.
func ReadFaultPlan(r io.Reader) (*FaultPlan, error) { return fault.ReadPlan(r) }

// WriteFaultPlan emits a plan in the JSON form ReadFaultPlan accepts.
func WriteFaultPlan(w io.Writer, p *FaultPlan) error { return fault.WritePlan(w, p) }

// ScenarioPlan re-exports the scenario-composition plan: named workload
// components — closed-loop ML-collective rings, N→1 incasts, all-to-all
// shuffles, multi-tenant Poisson mixes and a high-RTT long-haul profile —
// composed into one deterministic flow schedule. Attach one to
// Config.Scenario. See DESIGN.md, "Scenario layer".
type ScenarioPlan = scenario.Plan

// ScenarioCollective is one closed-loop ring all-reduce in a ScenarioPlan.
type ScenarioCollective = scenario.Collective

// ScenarioIncast is one open-loop N→1 burst in a ScenarioPlan.
type ScenarioIncast = scenario.Incast

// ScenarioShuffle is one open-loop all-to-all transfer in a ScenarioPlan.
type ScenarioShuffle = scenario.Shuffle

// ScenarioTenant is one named Poisson mix in a ScenarioPlan.
type ScenarioTenant = scenario.Tenant

// ScenarioProfile reshapes the long-haul link (propagation override, jitter,
// outages) for a ScenarioPlan.
type ScenarioProfile = scenario.Profile

// CollectiveStatus is one collective's end-of-run summary in Result.
type CollectiveStatus = scenario.CollectiveStatus

// ReadScenarioPlan parses a JSON scenario plan (see EXPERIMENTS.md for the
// format) and validates it.
func ReadScenarioPlan(r io.Reader) (*ScenarioPlan, error) { return scenario.ReadPlan(r) }

// WriteScenarioPlan emits a plan in the JSON form ReadScenarioPlan accepts.
func WriteScenarioPlan(w io.Writer, p *ScenarioPlan) error { return scenario.WritePlan(w, p) }

// ScenarioKinds lists the canonical acceptance-scenario kinds.
func ScenarioKinds() []string { return scenario.Kinds() }

// CanonicalScenario builds the pinned acceptance plan of the given kind for
// a topology with hosts hosts.
func CanonicalScenario(kind string, hosts int, seed int64) (*ScenarioPlan, error) {
	return scenario.CanonicalPlan(kind, hosts, seed)
}

// TenantSet re-exports the per-tenant statistics partition filled in by
// scenario runs (Result.Tenants).
type TenantSet = stats.TenantSet

// Telemetry re-exports the unified telemetry layer (metrics registry, flight
// recorder, run manifests). Attach one to Config.Telemetry to collect it.
type Telemetry = metrics.Telemetry

// TelemetryOptions selects which telemetry planes to enable.
type TelemetryOptions = metrics.Options

// NewTelemetry builds a telemetry layer for Config.Telemetry.
func NewTelemetry(opts TelemetryOptions) *Telemetry { return metrics.New(opts) }

// ObsServer re-exports the live observability server: Prometheus-text
// /metrics, /manifest, flight-recorder tails, Chrome trace exports and
// net/http/pprof, all served from immutable snapshots published at quiescent
// simulation points. Attach one to Config.Obs and call Serve on it; see
// EXPERIMENTS.md, "Live observability".
type ObsServer = obs.Server

// NewObsServer builds an observability server for Config.Obs.
func NewObsServer() *ObsServer { return obs.NewServer() }

// Time re-exports the simulator's picosecond time type.
type Time = sim.Time

// Rate re-exports the simulator's bits-per-second rate type.
type Rate = sim.Rate

// Convenient units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second

	Kbps = sim.Kbps
	Mbps = sim.Mbps
	Gbps = sim.Gbps
)

// FlowSpec is one transfer of a replayable workload trace.
type FlowSpec = workload.FlowSpec

// ReadFlows parses a flow trace file (CSV: src,dst,size_bytes,start_us);
// hosts is the host count of the target topology.
func ReadFlows(r io.Reader, hosts int) ([]FlowSpec, error) {
	return workload.ReadFlows(r, hosts)
}

// WriteFlows emits flows as a trace file for later replay.
func WriteFlows(w io.Writer, flows []FlowSpec) error {
	return workload.WriteFlows(w, flows)
}

// Algorithms lists the supported congestion-control algorithms.
func Algorithms() []string { return topo.Algorithms() }

// Workloads lists the supported flow-size distributions.
func Workloads() []string { return []string{"websearch", "hadoop"} }

// Config describes one run (internal/spec documents every field). Its JSON
// tags are the run-spec schema: a manifest's "config" replays its run.
type Config = spec.Config

// ReadSpec reads a run spec — a run manifest, or a hand-written {"config":
// {…}} — into an unresolved Config; unknown fields are rejected.
func ReadSpec(r io.Reader) (Config, error) { return spec.Read(r) }

// Result summarizes one simulation.
type Result struct {
	Flows      int
	Completed  int
	Unfinished int

	// Aborted counts flows whose sender gave up after the retransmission
	// budget (only possible under a fault plan or extreme loss).
	Aborted int

	// FaultDrops counts frames destroyed by the fault layer (down-link
	// discards plus Bernoulli loss); 0 when no plan was attached.
	FaultDrops int64

	// NodeCrashes/NodeRestarts/SwitchFails/SwitchRecovers count node-fault
	// events fired by the plan; all 0 without node events.
	NodeCrashes    int64
	NodeRestarts   int64
	SwitchFails    int64
	SwitchRecovers int64

	// FBDrops and FBCorrupts count feedback frames destroyed and INT
	// stacks damaged by the plan's feedback rules; 0 without one.
	FBDrops    int64
	FBCorrupts int64

	// InvalidINT counts feedback frames whose INT stack failed ingress
	// validation and was discarded before reaching the control loops.
	InvalidINT int64

	// WatchdogDecays and WatchdogRecovers count feedback-silence watchdog
	// rate halvings and their unwindings; always 0 unless Config.FBWatchdogK
	// armed the watchdog.
	WatchdogDecays   int64
	WatchdogRecovers int64

	AvgFCTIntra Time
	AvgFCTCross Time
	AvgFCT      Time
	P999Intra   Time
	P999Cross   Time

	PFCPauses int64
	Drops     int64

	// FCT gives access to the full completion-time distribution.
	FCT *stats.FCTCollector

	// Trace is the workload that was run (generated or replayed), suitable
	// for WriteFlows so a run can be replayed exactly. For scenario runs it
	// holds only the open-loop schedule: collective flows are closed-loop
	// (each phase launches off the previous one's completion barrier) and
	// cannot be replayed as a fixed trace.
	Trace []FlowSpec

	// Tenants partitions the FCT samples by scenario component (tenant,
	// collective, incast, shuffle name) with per-tenant percentiles,
	// completed-byte goodput and a Jain fairness index across components.
	// Nil unless the run had a Scenario.
	Tenants *TenantSet

	// Collectives summarizes each scenario collective's end state (phases
	// completed, failure, finish time), in plan order. Nil without a
	// Scenario.
	Collectives []CollectiveStatus

	// Audit is the conservation ledger's one-line fate summary when
	// Config.Audit was set and every conservation check passed ("" when
	// auditing was off or a check failed — see AuditProblems).
	Audit string

	// AuditProblems lists the conservation violations found at run end
	// when Config.Audit was set; nil when auditing was off or the books
	// closed clean. cmd/mlccsim and cmd/mlccfig exit non-zero on any.
	AuditProblems []string

	// Stalled reports that the guard plane's progress supervisor halted
	// the run (StallReason says why); always false without Config.Guard.
	Stalled     bool
	StallReason string

	// GuardStorms/GuardDeadlocks/GuardStalls count guard-plane detections
	// (rising edges, pause cycles, progress stalls); all 0 without
	// Config.Guard.
	GuardStorms    int64
	GuardDeadlocks int64
	GuardStalls    int64
}

// Run executes one workload simulation and returns its summary.
func Run(cfg Config) (*Result, error) {
	b, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	cfg, n, runner := b.Config, b.Net, b.Runner
	if runner == nil && len(b.Flows) == 0 {
		return nil, fmt.Errorf("mlcc: zero offered load (intra=%v cross=%v)", cfg.IntraLoad, cfg.CrossLoad)
	}
	r := b.Run("mlccsim", cfg.Telemetry.Registry().Histogram("cc."+cfg.Algorithm+".fct_us"))
	sum := &r.Summary

	col := stats.NewFCTCollector()
	for _, s := range sum.Samples {
		col.Add(s)
	}
	res := &Result{
		Flows: sum.Flows, FCT: col, Trace: b.Flows,
		Completed: sum.Done, Aborted: int(sum.HostAborts), PFCPauses: sum.PFCPauses, Drops: sum.Drops,
		InvalidINT: sum.InvalidINT, WatchdogDecays: sum.WatchdogDecays, WatchdogRecovers: sum.WatchdogRecovers,
		Stalled: sum.Stalled, StallReason: sum.StallReason, Tenants: r.Tenants,
	}
	if runner != nil {
		res.Collectives = runner.Statuses()
	}
	if cfg.Audit {
		res.AuditProblems = sum.AuditProblems
		if len(sum.AuditProblems) == 0 {
			res.Audit = n.Audit().Summary()
		}
	}
	if g := n.Guard; g != nil {
		res.GuardStorms = g.Storms
		res.GuardDeadlocks = g.Deadlocks
		res.GuardStalls = g.Stalls
	}
	res.NodeCrashes = n.Faults.NodeCrashes()
	res.NodeRestarts = n.Faults.NodeRestarts()
	res.SwitchFails = n.Faults.SwitchFails()
	res.SwitchRecovers = n.Faults.SwitchRecovers()
	res.FaultDrops = n.Faults.TotalDrops()
	res.FBDrops = n.Faults.FeedbackDropped()
	res.FBCorrupts = n.Faults.FeedbackCorrupted()
	res.Unfinished = res.Flows - res.Completed - res.Aborted
	res.AvgFCTIntra, _ = col.Avg(stats.Intra)
	res.AvgFCTCross, _ = col.Avg(stats.Cross)
	res.AvgFCT, _ = col.Avg(nil)
	res.P999Intra, _ = col.Percentile(stats.Intra, 0.999)
	res.P999Cross, _ = col.Percentile(stats.Cross, 0.999)
	return res, nil
}

// Failures is the run's failure gate, topo.Summary.Failures over the
// Result: one line per open conservation book, a guard stall's halt, and
// aborted flows unless abortsExpected. mlccsim exits non-zero on any, and
// expects aborts only under a fault plan.
func (r *Result) Failures(abortsExpected bool) []string {
	s := topo.Summary{AuditProblems: r.AuditProblems, Stalled: r.Stalled, StallReason: r.StallReason, Aborted: r.Aborted}
	return s.Failures(abortsExpected)
}

// Experiment re-exports the figure-regeneration harness: id is one of
// ExperimentIDs(); full selects the paper-scale topology.
func Experiment(id string, full bool, seed int64) (*exp.Report, error) {
	e, ok := exp.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("mlcc: unknown experiment %q (have %v)", id, exp.IDs())
	}
	scale := exp.Quick
	if full {
		scale = exp.Full
	}
	return e.Run(exp.Config{Scale: scale, Seed: seed})
}

// ExperimentIDs lists the reproducible paper figures.
func ExperimentIDs() []string { return exp.IDs() }
