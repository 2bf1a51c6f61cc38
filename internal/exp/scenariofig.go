package exp

import (
	"mlcc/internal/sim"
	"mlcc/internal/spec"
)

// scenarioFig sweeps the canonical scenario matrix: every kind × every
// algorithm, one acceptance table per kind.
var scenarioFig = figure{
	id:    "scenario",
	title: "Scenario matrix (canonical acceptance plans, audited)",
	cells: []cell{
		// Collectives need phases × (cross RTT + barrier poll) to drain.
		scenarioCell("collective", "ML collective: 8-worker cross-DC ring, 4 barrier phases + websearch background",
			100*sim.Millisecond, false,
			colPhasesDone, colFinishMs, tenantAvg("bgAvgUs", "bg", usOf), colAborted, colDone),
		scenarioCell("incast", "Incast + shuffle: near/far N:1 bursts, all-to-all shuffle",
			60*sim.Millisecond, false,
			tenantP99("burstP99us", "burst", usOf), tenantP99("farP99ms", "far-burst", msOf),
			tenantAvg("shuffleAvgUs", "shuffle", usOf),
			column{"drops", func(o *outcome) float64 { return float64(o.sum.Drops) }}, colDone),
		scenarioCell("tenants", "Multi-tenant: websearch vs hadoop mixes",
			60*sim.Millisecond, false,
			tenantP99("webP99us", "web", usOf), tenantP99("batchP99us", "batch", usOf),
			column{"fairness", func(o *outcome) float64 { return o.tenants.Fairness() }}, colAborted, colDone),
		// The space-DC haul stretches every budget by the ~200 ms RTT plus
		// an RTO-paced recovery from its scripted outage, which may also cost
		// flows their retransmission budget.
		scenarioCell("spacedc", "Space DC: 100 ms haul + jitter + 3 ms outage, relay ring + bulk tenant",
			2000*sim.Millisecond, true,
			colPhasesDone, colFinishMs, tenantAvg("bulkAvgMs", "bulk", msOf), colAborted, colDone),
	},
	notes: []string{
		"every cell runs a canonical scenario plan (internal/scenario.CanonicalPlan) with the conservation audit attached; open books, guard stalls and unexpected aborts fail the figure",
		"collective barriers are closed-loop: a phase launches only after every tensor flow of the previous phase completed (quiescent poll, shard-invariant)",
		"expected shape: all collectives finish their planned phases, no aborts outside the space-DC outage, tenant fairness in (0,1]",
	},
}

// scenarioCell is one canonical scenario kind on the two-DC fabric: Quick
// keeps cells in milliseconds of wall time (2 spines, 2 leaves and 2 hosts
// per leaf per DC), Full uses §4.1's fabric at 4 hosts per leaf so
// collectives and incasts spread across real racks. Config.WithScenario sizes
// the plan to the fabric and shapes the long haul, and the build binds it,
// registering its open-loop flows and priming the collectives. deadline
// gives the kind's closed loop room to drain.
func scenarioCell(kind, title string, deadline sim.Time, abortsExpected bool, cols ...column) cell {
	return cell{
		name: kind, title: title, cols: cols, abortsExpected: abortsExpected,
		config: func(cfg Config) spec.Config {
			c := spec.Config{HostsPerLeaf: 4, Deadline: deadline, Seed: cfg.Seed}
			if cfg.Scale == Quick {
				c.SpinesPerDC, c.LeavesPerDC, c.HostsPerLeaf = 2, 2, 2
			}
			c, err := c.WithScenario(kind)
			if err != nil {
				panic(err) // the figure names only canonical kinds, on even fabrics
			}
			return c
		},
	}
}

// Scenario columns: the first collective's barrier outcome and per-tenant
// FCT statistics in the given unit.
var (
	colPhasesDone = column{"phasesDone", func(o *outcome) float64 { return float64(o.runner.Statuses()[0].PhasesDone) }}
	colFinishMs   = column{"finishMs", func(o *outcome) float64 { return msOf(o.runner.Statuses()[0].FinishedAt) }}
)

func tenantAvg(name, tenant string, unit func(sim.Time) float64) column {
	return column{name, func(o *outcome) float64 {
		v, _ := o.tenants.AvgFCT(tenant)
		return unit(v)
	}}
}

func tenantP99(name, tenant string, unit func(sim.Time) float64) column {
	return column{name, func(o *outcome) float64 {
		v, _ := o.tenants.Percentile(tenant, 0.99)
		return unit(v)
	}}
}
