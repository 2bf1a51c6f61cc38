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

	// Config holds the run parameters: mlcc.Run records its resolved
	// mlcc.Config, which replays the run; the figure tools record a
	// map[string]any, whose keys json.Marshal sorts so manifests diff cleanly.
	Config any `json:"config,omitempty"`

	GoVersion string `json:"go_version"`
	Revision  string `json:"vcs_revision"`
	Modified  bool   `json:"vcs_modified,omitempty"`

	WallSeconds float64 `json:"wall_seconds"`
	SimMillis   float64 `json:"sim_millis"`
	EventsFired uint64  `json:"events_fired"`
	Flows       int     `json:"flows,omitempty"`

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

// Clone returns an independent copy: mutating either manifest's maps leaves
// the other untouched. A map config holds only scalars, so a one-level copy
// suffices; a struct config is copied by value and shares its plans, which
// is safe because a run's plans are not mutated after mlcc.Run starts.
func (m *Manifest) Clone() *Manifest {
	c := *m
	if cfg, ok := m.Config.(map[string]any); ok {
		c.Config = maps.Clone(cfg)
	}
	c.Counters = maps.Clone(m.Counters)
	return &c
}

// FillSim records the simulation outcome: final clock and fired-event count.
func (m *Manifest) FillSim(now sim.Time, fired uint64) {
	m.SimMillis = now.Millis()
	m.EventsFired = fired
}

// AddCounters snapshots every instrument of reg into the manifest.
func (m *Manifest) AddCounters(reg *Registry) {
	pts := reg.Snapshot()
	if len(pts) == 0 {
		return
	}
	m.Counters = make(map[string]float64, len(pts))
	for _, p := range pts {
		m.Counters[p.Name] = p.Value
	}
}

// WriteJSON emits the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
