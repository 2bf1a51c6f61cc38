// Package exp is the benchmark harness: one experiment per table/figure of
// the paper's evaluation, each a figure — an (algorithm × cell) matrix that
// figure.run sweeps through one build-bind-run function and one failure gate,
// reporting the same rows or series the paper plots. Independent simulations
// within an experiment run concurrently on a worker pool — the engines
// themselves are single-threaded for determinism, so parallelism comes from
// running many engines at once.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"mlcc/internal/metrics"
	"mlcc/internal/sim"
	"mlcc/internal/stats"
)

// Scale selects the simulation size. Quick keeps benchmark runs in seconds
// (8 hosts/leaf, short windows); Full is the paper's §4.1 setup (4:1
// oversubscription needs 32 hosts/leaf) for offline regeneration via
// cmd/mlccfig -full.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// Config controls one experiment invocation.
type Config struct {
	Scale Scale
	Seed  int64
	// Workers bounds concurrent simulations; 0 = GOMAXPROCS.
	Workers int
	// Shards is the per-DC engine count handed to spec.Config.Shards:
	// 0/1 = single engine, 2 = one engine per datacenter running under the
	// conservative barrier scheduler. Digests are identical either way
	// (TestShardDigestEquality), so this is purely a wall-time knob.
	Shards int
}

// Table is an ordered labelled grid of measurements.
type Table struct {
	title string
	unit  string
	cols  []string
	rows  []tableRow
}

type tableRow struct {
	label string
	vals  []float64
}

// newTable constructs a table with the given columns.
func newTable(title, unit string, cols ...string) *Table {
	return &Table{title: title, unit: unit, cols: cols}
}

// addRow appends a labelled row; vals align with cols (missing cells are 0).
func (t *Table) addRow(label string, vals ...float64) {
	row := tableRow{label: label, vals: make([]float64, len(t.cols))}
	copy(row.vals, vals)
	t.rows = append(t.rows, row)
}

// Get returns the value at (rowLabel, col).
func (t *Table) Get(rowLabel, col string) (float64, bool) {
	ci := -1
	for i, c := range t.cols {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.rows {
		if r.label == rowLabel {
			return r.vals[ci], true
		}
	}
	return 0, false
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", t.title)
	if t.unit != "" {
		fmt.Fprintf(&b, " (%s)", t.unit)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-24s", "")
	for _, c := range t.cols {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-24s", r.label)
		for _, v := range r.vals {
			fmt.Fprintf(&b, "%14.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Report is the output of one experiment.
type Report struct {
	ID     string
	title  string
	Tables []*Table
	Series []*stats.Series
	notes  []string

	// Manifests records one run manifest (provenance + final counter
	// snapshot) per underlying simulation, in row order.
	Manifests []*metrics.Manifest

	// Failures lists hard problems a figure's runs hit — audit books that
	// did not close, guard-plane stall aborts, unexpected flow aborts.
	// They fail the invocation: cmd/mlccfig prints each and exits non-zero.
	Failures []string
}

// addNote appends a free-form observation line.
func (r *Report) addNote(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(r.Series) > 0 {
		fmt.Fprintf(&b, "series: ")
		for i, s := range r.Series {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s[%d]", s.Name, s.Len())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment regenerates one paper figure.
type Experiment struct {
	id    string
	Title string
	Run   func(cfg Config) (*Report, error)
}

var registry = map[string]Experiment{}

func init() {
	for _, f := range []*figure{&fig2, &fig3, &fig4, &fig7, &fig8, &fig9, &fig10, &fig11, &fig12, &fig13, &fig14,
		&fig15, &fig16, &ablationFig, &loadSweepFig, &resilienceFig, &fbResilienceFig, &nodeResilienceFig, &scenarioFig} {
		register(f)
	}
}

// register derives a figure's Experiment: its report title is its title.
func register(f *figure) {
	if _, dup := registry[f.id]; dup {
		panic("exp: duplicate experiment " + f.id)
	}
	registry[f.id] = Experiment{id: f.id, Title: f.title, Run: f.run}
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs lists registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// fig2 < fig10 numerically; the unnumbered figures (all 0) sort by
		// name so the order does not depend on map iteration.
		if a, b := figNum(out[i]), figNum(out[j]); a != b {
			return a < b
		}
		return out[i] < out[j]
	})
	return out
}

func figNum(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// msOf converts simulation time to milliseconds for table cells.
func msOf(t sim.Time) float64 { return t.Millis() }

// usOf converts simulation time to microseconds for table cells.
func usOf(t sim.Time) float64 { return t.Micros() }
