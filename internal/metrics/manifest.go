package metrics

import (
	"encoding/json"
	"io"
	"maps"
	"runtime"
	"runtime/debug"

	"mlcc/internal/sim"
)

// Manifest is the JSON run record: enough provenance (config, seed, VCS
// revision, wall time) plus the final counter snapshot to reproduce a run
// and sanity-check a figure without rerunning it.
type Manifest struct {
	Tool      string `json:"tool"`
	Algorithm string `json:"algorithm,omitempty"`
	Workload  string `json:"workload,omitempty"`
	Seed      int64  `json:"seed"`

	// Config holds the run's resolved spec.Config — mlcc.Run and every
	// figure run record one — so the manifest replays the run (mlccsim
	// -spec). It is an any because spec imports this package.
	Config any `json:"config,omitempty"`

	GoVersion string `json:"go_version"`
	Revision  string `json:"vcs_revision"`
	Modified  bool   `json:"vcs_modified,omitempty"`

	WallSeconds float64 `json:"wall_seconds"`
	// Runtime holds the registry's runtime gauges (Kind Runtime),
	// which vary with the machine and the shard count, apart from Counters.
	Runtime     map[string]float64 `json:"runtime,omitempty"`
	SimMillis   float64            `json:"sim_millis"`
	EventsFired uint64             `json:"events_fired"`
	Flows       int                `json:"flows,omitempty"`

	Counters map[string]float64 `json:"counters,omitempty"`
}

// NewManifest returns a manifest stamped with the build's provenance
// (Go version and, when the binary was built from a VCS checkout, its
// revision — the offline stand-in for git-describe).
func NewManifest(tool string) *Manifest {
	m := &Manifest{Tool: tool, GoVersion: runtime.Version(), Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// Clone returns an independent copy: mutating either manifest's counters
// leaves the other untouched. The config is copied by value and shares its
// plans and flows, which is safe because a run never mutates them.
func (m *Manifest) Clone() *Manifest {
	c := *m
	c.Counters = maps.Clone(m.Counters)
	c.Runtime = maps.Clone(m.Runtime)
	return &c
}

// FillSim records the simulation outcome: final clock and fired-event count.
func (m *Manifest) FillSim(now sim.Time, fired uint64) {
	m.SimMillis = now.Millis()
	m.EventsFired = fired
}

// AddCounters snapshots every instrument of reg into the manifest: the
// runtime gauges into Runtime, everything else into Counters.
func (m *Manifest) AddCounters(reg *Registry) {
	pts := reg.Snapshot()
	if len(pts) == 0 {
		return
	}
	m.Counters = make(map[string]float64, len(pts))
	for _, p := range pts {
		if p.Runtime {
			if m.Runtime == nil {
				m.Runtime = map[string]float64{}
			}
			m.Runtime[p.Name] = p.Value
			continue
		}
		m.Counters[p.Name] = p.Value
	}
}

// WriteJSON emits the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
