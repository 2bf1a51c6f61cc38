package exp

import (
	"fmt"

	"mlcc/internal/audit"
	scen "mlcc/internal/scenario"
	"mlcc/internal/sim"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
)

// resilAlgs are the rows of every fault/scenario figure.
var resilAlgs = []string{topo.AlgMLCC, topo.AlgDCQCN, topo.AlgTimely, topo.AlgHPCC, topo.AlgPowerTCP}

// figure is a fault/scenario figure as data: an (algorithm × cell) matrix
// with one table per cell and one row per algorithm. The figure files hold
// only timelines, plans, column lists and notes; figure.run owns the sweep.
// Adding a condition to a figure is one more entry in its cells.
type figure struct {
	id    string
	title string
	cells []cell
	notes []string
}

// cell is one condition of a figure's matrix: how to perturb the network,
// which flows to place, how long to run and what to read off the result.
type cell struct {
	name  string // "<alg>/<name>" keys failures; "<figure>:<name>" is the manifest workload
	title string // table title
	cols  []column

	build func(topo.Params) *topo.Network // topo.Dumbbell or topo.TwoDC
	// setup adjusts the algorithm-bound, audited parameters (shape, delays,
	// fault plan, guard, watchdog) and returns the function that places the
	// cell's flows — and may track one series — on the built network.
	setup  func(p *topo.Params, cfg Config) (place func(o *outcome) error, err error)
	sample sim.Time // sampling interval for the tracked series; 0 = registry only
	window sim.Time

	// abortsExpected marks a cell whose point is senders giving up (a
	// permanent blackout, the space-DC outage); anywhere else an aborted
	// flow fails the figure.
	abortsExpected bool
}

// column is one table column: a name and how to read it off a finished run.
type column struct {
	name string
	val  func(o *outcome) float64
}

// outcome is one finished (algorithm, cell) run.
type outcome struct {
	*scenario // network, telemetry, flow groups, manifest
	sum       topo.Summary
	series    *stats.Series // the tracked series; nil when the cell tracks none

	// Set by scenario-plan cells: the bound runner and the per-tenant
	// statistics of its tagged flows.
	runner  *scen.Runner
	tenants *stats.TenantSet
}

// run builds, binds and runs one algorithm under this cell, with passive
// telemetry and the conservation ledger attached.
func (c *cell) run(alg string, cfg Config) (*outcome, error) {
	p := topo.DefaultParams().WithAlgorithm(alg)
	p.Seed = cfg.Seed
	p.Shards = cfg.Shards
	p.Audit = audit.New()
	place, err := c.setup(&p, cfg)
	if err != nil {
		return nil, err
	}
	o := &outcome{scenario: newScenario(c.build, p, c.window, c.sample)}
	if err := place(o); err != nil {
		return nil, err
	}
	o.scenario.run(c.window)
	o.sum = o.n.Summary()
	o.manifest().Flows = o.sum.Flows
	if o.runner != nil {
		o.tenants = stats.NewTenantSet()
		for i, s := range o.sum.Samples {
			o.tenants.Add(o.runner.Tag(o.sum.IDs[i]), s)
		}
	}
	return o, nil
}

// gate is the one failure gate of every matrix figure: open conservation
// books and guard-stall halts always fail the cell, aborted flows fail it
// unless the cell declares them expected.
func (c *cell) gate(alg string, s *topo.Summary) []string {
	var fails []string
	for _, prob := range s.AuditProblems {
		fails = append(fails, fmt.Sprintf("%s/%s: conservation: %s", alg, c.name, prob))
	}
	if s.Stalled {
		fails = append(fails, fmt.Sprintf("%s/%s: guard stall aborted the run: %s", alg, c.name, s.StallReason))
	}
	if s.Aborted > 0 && !c.abortsExpected {
		fails = append(fails, fmt.Sprintf("%s/%s: %d flow(s) aborted — none expected in this cell", alg, c.name, s.Aborted))
	}
	return fails
}

// cell returns the figure's cell with the given name, or nil.
func (f *figure) cell(name string) *cell {
	for i := range f.cells {
		if f.cells[i].name == name {
			return &f.cells[i]
		}
	}
	return nil
}

// run sweeps the matrix — every (cell, algorithm) pair is one job — then
// turns each cell into a table with a row per algorithm; series, manifests,
// warnings and gate failures follow in row order.
func (f *figure) run(cfg Config) (*Report, error) {
	nAlgs := len(resilAlgs)
	outs, err := sweep(cfg.Workers, len(f.cells)*nAlgs, func(i int) (*outcome, error) {
		c, alg := &f.cells[i/nAlgs], resilAlgs[i%nAlgs]
		o, err := c.run(alg, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s %s/%s: %w", f.id, c.name, alg, err)
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: f.id, Title: f.title, Notes: append([]string(nil), f.notes...)}
	for ci := range f.cells {
		c := &f.cells[ci]
		names := make([]string, len(c.cols))
		for i, col := range c.cols {
			names[i] = col.name
		}
		tbl := NewTable(c.title, "", names...)
		for ai, alg := range resilAlgs {
			o := outs[ci*nAlgs+ai]
			vals := make([]float64, len(c.cols))
			for i, col := range c.cols {
				vals[i] = col.val(o)
			}
			tbl.AddRow(alg, vals...)
			o.manifest().Workload = f.id + ":" + c.name
			rep.addRun(o.scenario, o.series)
			rep.Failures = append(rep.Failures, c.gate(alg, &o.sum)...)
		}
		rep.Tables = append(rep.Tables, tbl)
	}
	return rep, nil
}

// Columns shared by several figures.
var (
	colDone       = column{"done", func(o *outcome) float64 { return float64(o.sum.Done) }}
	colAborted    = column{"aborted", func(o *outcome) float64 { return float64(o.sum.Aborted) }}
	colRetrans    = column{"retrans", func(o *outcome) float64 { return float64(o.sum.Retransmits) }}
	colAudit      = column{"auditProblems", func(o *outcome) float64 { return float64(len(o.sum.AuditProblems)) }}
	colFaultDrops = column{"faultDrops", func(o *outcome) float64 { return float64(o.n.Faults.TotalDrops()) }}
)

// dumbbell4 is the setup every dumbbell cell starts from: two servers per
// ToR, so hosts 0,1 are DC 0 and hosts 2,3 are DC 1.
func dumbbell4(p *topo.Params, longHaul sim.Time) {
	p.HostsPerLeaf = 2
	p.LongHaulDelay = longHaul
}

// doneIn counts the completed flows of a group.
func doneIn(o *outcome, group string) float64 {
	var n float64
	for _, f := range o.groups[group] {
		if f.Done {
			n++
		}
	}
	return n
}
