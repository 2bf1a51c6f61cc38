package exp

import (
	"fmt"
	"sync"

	"mlcc/internal/host"
	"mlcc/internal/metrics"
	scen "mlcc/internal/scenario"
	"mlcc/internal/sim"
	"mlcc/internal/spec"
	"mlcc/internal/stats"
	"mlcc/internal/topo"
)

// allAlgs are the rows of a figure that names none.
var allAlgs = []string{topo.AlgMLCC, topo.AlgDCQCN, topo.AlgTimely, topo.AlgHPCC, topo.AlgPowerTCP}

// figure is an experiment as data: an (algorithm × cell) matrix. The figure
// files hold only placements, timelines, column lists and notes; figure.run
// owns the sweep, every build and the failure gate. Adding a condition to a
// figure is one more entry in its cells.
type figure struct {
	id    string
	title string
	algs  []string // the rows; nil = allAlgs
	cells []cell
	notes []string

	// layout lays the outcomes, outs[cell][alg], out as the report's tables
	// and result-dependent notes. nil = perCell.
	layout func(rep *Report, outs [][]*outcome)
}

// span is a scale-dependent duration, indexed by Scale: {Quick, Full}.
type span [2]sim.Time

// cell is one condition of a figure's matrix: the run it describes at each
// scale, the flows it places by hand, and what to read off the result.
type cell struct {
	name  string // "<alg>/<name>" keys failures; "<figure>:<name>" is the manifest workload
	title string // table title under perCell
	cols  []column

	// config describes the cell's run at cfg's scale and seed — shape,
	// delays, planes, workload or scenario, and Deadline, the run length.
	// The sweep sets the algorithm, seed and shard count and attaches
	// telemetry and the conservation ledger.
	config func(cfg Config) spec.Config
	// place registers the flows the config does not describe, and may track
	// series, on the built network; nil when the config's workload or
	// scenario is the whole schedule.
	place  func(o *outcome) error
	sample sim.Time // sampling interval for tracked series; 0 = registry only

	// memo, when set, keys a run that several figures share (11↔13, 12↔14):
	// it is simulated once per (memo, algorithm, scale, seed, shards).
	memo string

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
	alg    string
	cell   *cell
	scale  Scale
	window sim.Time // the run length: the resolved config's Deadline

	n      *topo.Network // nil on a memoized run
	tel    *metrics.Telemetry
	man    *metrics.Manifest
	groups map[string][]*host.Flow
	sum    topo.Summary

	series []*stats.Series     // reported, in order
	q      *stats.Series       // the receiver-side DCI queue, when tracked
	rates  []float64           // convergence cells: per-flow steady-state rate (bits/s)
	fct    *stats.FCTCollector // memoized cells: the completed flows' FCTs

	// Set by scenario-plan cells: the bound runner and the per-tenant
	// statistics of its tagged flows.
	runner  *scen.Runner
	tenants *stats.TenantSet
}

// run returns one algorithm's run under this cell, simulating it unless the
// memo already holds it. The memo keeps what layouts and the gate read —
// summary, FCTs, manifest — never the network, and every caller
// gets its own clone: two figures sharing a run must not alias a collector
// or a manifest. Concurrent callers of one key wait for a single simulation.
func (c *cell) run(alg string, cfg Config) (*outcome, error) {
	if c.memo == "" {
		return c.simulate(alg, cfg)
	}
	v, _ := memo.LoadOrStore(c.memoKey(alg, cfg), &memoEntry{})
	e := v.(*memoEntry)
	e.once.Do(func() {
		o, err := c.simulate(alg, cfg)
		if e.err = err; err != nil {
			return
		}
		fct := stats.NewFCTCollector()
		for _, s := range o.sum.Samples {
			if !s.Aborted { // an aborted transfer has no FCT to report
				fct.Add(s)
			}
		}
		e.o = &outcome{alg: alg, scale: o.scale, window: o.window, man: o.man, sum: o.sum, fct: fct}
	})
	if e.err != nil {
		return nil, e.err
	}
	o := *e.o
	o.cell, o.fct, o.man = c, o.fct.Clone(), o.man.Clone()
	return &o, nil
}

var memo sync.Map // memoKey -> *memoEntry

type memoEntry struct {
	once sync.Once
	o    *outcome // canonical; callers get clones
	err  error
}

type memoKey struct {
	memo, alg string
	scale     Scale
	seed      int64
	shards    int
}

func (c *cell) memoKey(alg string, cfg Config) memoKey {
	return memoKey{c.memo, alg, cfg.Scale, cfg.Seed, cfg.Shards}
}

// simulate builds one algorithm under this cell through spec.Config.Build,
// with passive telemetry and the conservation ledger attached, places the
// cell's flows and runs it through spec.Built.Run, whose manifest records
// the hand-placed flows in its config so it replays the run.
func (c *cell) simulate(alg string, cfg Config) (*outcome, error) {
	sc := c.config(cfg)
	sc.Algorithm, sc.Seed, sc.Shards, sc.Audit = alg, cfg.Seed, cfg.Shards, true
	tel := metrics.New(metrics.Options{Metrics: true, SampleInterval: c.sample})
	sc.Telemetry = tel
	b, err := sc.Build()
	if err != nil {
		return nil, err
	}
	o := &outcome{alg: alg, cell: c, scale: cfg.Scale, window: b.Config.Deadline, groups: map[string][]*host.Flow{},
		n: b.Net, tel: tel, runner: b.Runner}
	if c.place != nil {
		if err := c.place(o); err != nil {
			return nil, err
		}
	}
	r := b.Run("mlccfig", nil)
	o.man, o.sum, o.tenants = r.Manifest, r.Summary, r.Tenants
	o.man.AddCounters(tel.Registry())
	return o, nil
}

// gate is the one failure gate, topo.Summary.Failures, under this cell's
// abort policy, each failure keyed by "<alg>/<cell>".
func (c *cell) gate(alg string, s *topo.Summary) []string {
	fails := s.Failures(c.abortsExpected)
	for i, f := range fails {
		fails[i] = alg + "/" + c.name + ": " + f
	}
	return fails
}

// run sweeps the matrix — every (cell, algorithm) pair is one job — then
// collects series, manifests and gate failures cell by cell in row
// order, and lays the outcomes out as tables.
func (f *figure) run(cfg Config) (*Report, error) {
	algs := f.algs
	if algs == nil {
		algs = allAlgs
	}
	nAlgs := len(algs)
	flat, err := sweep(cfg.Workers, len(f.cells)*nAlgs, func(i int) (*outcome, error) {
		c, alg := &f.cells[i/nAlgs], algs[i%nAlgs]
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
	outs := make([][]*outcome, len(f.cells))
	for ci := range f.cells {
		c := &f.cells[ci]
		outs[ci] = flat[ci*nAlgs : (ci+1)*nAlgs]
		for _, o := range outs[ci] {
			o.man.Workload = f.id + ":" + c.name
			rep.Series = append(rep.Series, o.series...)
			rep.Manifests = append(rep.Manifests, o.man)
			rep.Failures = append(rep.Failures, c.gate(o.alg, &o.sum)...)
		}
	}
	layout := f.layout
	if layout == nil {
		layout = perCell
	}
	layout(rep, outs)
	return rep, nil
}

// perCell is the default layout: one table per cell, one row per algorithm.
func perCell(rep *Report, outs [][]*outcome) {
	for _, row := range outs {
		c := row[0].cell
		rep.Tables = append(rep.Tables, colTable(c.title, "", c.cols, row, byAlg))
	}
}

// byCell lays a one-algorithm figure out as one table with a row per cell.
func byCell(title, unit string, cols ...column) func(*Report, [][]*outcome) {
	return func(rep *Report, outs [][]*outcome) {
		runs := make([]*outcome, len(outs))
		for i, row := range outs {
			runs[i] = row[0]
		}
		rep.Tables = append(rep.Tables, colTable(title, unit, cols, runs, func(o *outcome) string { return o.cell.name }))
	}
}

func byAlg(o *outcome) string { return o.alg }

// colTable reads cols off each run into one table row labelled by label.
func colTable(title, unit string, cols []column, runs []*outcome, label func(*outcome) string) *Table {
	names := make([]string, len(cols))
	for i, col := range cols {
		names[i] = col.name
	}
	tbl := NewTable(title, unit, names...)
	for _, o := range runs {
		vals := make([]float64, len(cols))
		for i, col := range cols {
			vals[i] = col.val(o)
		}
		tbl.AddRow(label(o), vals...)
	}
	return tbl
}

// addGroupFlow adds a flow to a named group.
func (o *outcome) addGroupFlow(group string, src, dst int, size int64, start sim.Time) *host.Flow {
	f := o.n.AddFlow(src, dst, size, start)
	o.groups[group] = append(o.groups[group], f)
	return f
}

// trackRate samples fn's monotone byte count as a rate (bits/s) into a named
// series, registered in the telemetry registry as exp.<name>.
func (o *outcome) trackRate(name string, fn func() int64) *stats.Series {
	ser := &stats.Series{Name: name, Kind: stats.FlowRate}
	o.tel.SampleCounterRate("exp."+name, ser, 8, fn)
	return ser
}

// trackGroupRate samples the aggregate receive rate of a flow group (bits/s).
func (o *outcome) trackGroupRate(group string) *stats.Series {
	flows := o.groups[group]
	return o.trackRate("rate:"+group, func() int64 {
		var sum int64
		for _, f := range flows {
			sum += f.RxBytes
		}
		return sum
	})
}

// trackQueue samples a switch's buffer occupancy in bytes, registered as
// exp.<name>.
func (o *outcome) trackQueue(name string, sw interface{ BufferUsed() int64 }) *stats.Series {
	ser := &stats.Series{Name: name, Kind: stats.QueueLen}
	o.tel.SampleGauge("exp."+name, ser, func() float64 { return float64(sw.BufferUsed()) })
	return ser
}

// Columns shared by several figures.
var (
	colDone       = column{"done", func(o *outcome) float64 { return float64(o.sum.Done) }}
	colAborted    = column{"aborted", func(o *outcome) float64 { return float64(o.sum.Aborted) }}
	colRetrans    = column{"retrans", func(o *outcome) float64 { return float64(o.sum.Retransmits) }}
	colAudit      = column{"auditProblems", func(o *outcome) float64 { return float64(len(o.sum.AuditProblems)) }}
	colFaultDrops = column{"faultDrops", func(o *outcome) float64 { return float64(o.n.Faults.TotalDrops()) }}
)

// runFor is the config of a cell whose run does not change with scale or
// seed: c, run until window at the sweep's scale.
func runFor(c spec.Config, window span) func(Config) spec.Config {
	return func(cfg Config) spec.Config {
		r := c // c is shared by the sweep's concurrent runs
		r.Deadline = window[cfg.Scale]
		return r
	}
}

// testbed is the dumbbell every fault cell runs on: two 25G servers per ToR
// (hosts 0,1 in DC 0, hosts 2,3 in DC 1) over the given long haul, run until
// deadline at both scales.
func testbed(longHaul, deadline sim.Time) spec.Config {
	return spec.Config{Dumbbell: true, HostRate: 25 * sim.Gbps, LongHaulDelay: longHaul, Deadline: deadline}
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
