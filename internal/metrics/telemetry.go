package metrics

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mlcc/internal/sim"
	"mlcc/internal/stats"
)

// Options selects which telemetry planes to enable. The zero value disables
// everything; New with the zero value still returns a usable (all-passive)
// Telemetry, but callers normally pass nil *Telemetry instead.
type Options struct {
	// Metrics enables the counter/gauge/histogram registry.
	Metrics bool

	// FlightRecorderSize, when positive, enables a flight recorder keeping
	// the last N packet-lifecycle events.
	FlightRecorderSize int

	// SampleInterval, when positive, enables periodic sampling of registry
	// instruments into CSV-exportable time series (stats.Series).
	SampleInterval sim.Time

	// SampleAll samples every registered counter and gauge; otherwise only
	// series registered through SampleGauge/SampleCounterRate are sampled.
	SampleAll bool
}

// Telemetry bundles one simulation's telemetry planes: the instrument
// registry, the flight recorder, the sampled time series and the run
// manifest. All fields may be nil; accessors are nil-safe so a nil
// *Telemetry means "telemetry off" throughout the simulator.
type Telemetry struct {
	opts Options
	Reg  *Registry
	fr   *FlightRecorder

	// Manifest, when set, is exported by WriteDir as manifest.json.
	Manifest *Manifest

	// NodeNamer, when set (the topology builder installs it), maps flight-
	// recorder node ids to topology names ("host3", "leaf0", "dci1") for the
	// trace.json export and the observability server.
	NodeNamer func(node int32) string

	specs []*sampleSpec
	// walk holds, with SampleAll, the series of every instrument the
	// registry's sampled walk reads, in walk order: nil where an explicit
	// series already samples that name. Pump fills them from one walk per
	// tick, asking each source once.
	walk []*stats.Series

	// shardFRs are the per-shard flight recorders handed out by
	// ShardRecorders; shardFRs[0] is fr itself. Nil until a sharded build
	// asks for them.
	shardFRs []*FlightRecorder

	// Sampling is pump-driven: StartSampling arms it and the simulation
	// driver calls Pump at every quiescent sample boundary (see
	// topo.Network.Run). sampleStop bounds the armed window.
	sampleArmed bool
	sampleStop  sim.Time
}

// New builds a Telemetry with the selected planes enabled.
func New(opts Options) *Telemetry {
	t := &Telemetry{opts: opts}
	if opts.Metrics {
		t.Reg = NewRegistry()
	}
	if opts.FlightRecorderSize > 0 {
		t.fr = NewFlightRecorder(opts.FlightRecorderSize)
	}
	return t
}

// Registry returns the instrument registry (nil when disabled or t is nil).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.Reg
}

// Recorder returns the flight recorder (nil when disabled or t is nil).
func (t *Telemetry) Recorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.fr
}

// ShardRecorders returns k flight recorders for a k-shard build: index 0 is
// the primary recorder (Recorder()), further indices are fresh recorders with
// the same capacity, created on first request and remembered
// so repeated calls return the same set. Each shard records into its own ring
// lock-free on the hot path; FlightEvents and WriteDir merge the streams.
// Returns nil when the flight recorder is disabled (or t is nil).
func (t *Telemetry) ShardRecorders(k int) []*FlightRecorder {
	if t == nil || t.fr == nil {
		return nil
	}
	if t.shardFRs == nil {
		t.shardFRs = []*FlightRecorder{t.fr}
	}
	for len(t.shardFRs) < k {
		t.shardFRs = append(t.shardFRs, t.fr.newLike())
	}
	return t.shardFRs[:k]
}

// FlightEvents returns the recorded packet-lifecycle events of every shard's
// recorder merged into one time-ordered stream (stable across shards, so the
// merge is deterministic). Nil when the flight recorder is disabled.
func (t *Telemetry) FlightEvents() []Event {
	if t == nil || t.fr == nil {
		return nil
	}
	if t.shardFRs == nil {
		return t.fr.Events()
	}
	return MergeEvents(t.shardFRs...)
}

// FlightRecorded reports the total events accepted across every shard's
// recorder (including overwritten ones).
func (t *Telemetry) FlightRecorded() uint64 {
	if t == nil {
		return 0
	}
	if t.shardFRs == nil {
		return t.fr.Recorded()
	}
	var n uint64
	for _, fr := range t.shardFRs {
		n += fr.Recorded()
	}
	return n
}

// sampleSpec is one sampled time series: a gauge (value per tick), a
// counter rate (scaled delta per second over the tick interval), or, with
// neither set, a SampleAll series that Pump's registry walk fills. name is
// the registry name.
type sampleSpec struct {
	name    string
	series  *stats.Series
	gauge   func() float64
	counter func() int64
	scale   float64
	last    int64
}

// SampleGauge registers fn in the registry as name (when enabled) and, with
// sampling on, samples its value into ser on every tick: the caller owns the
// series and its Name and Kind labels, and reads it after the run. No-op on
// nil t.
func (t *Telemetry) SampleGauge(name string, ser *stats.Series, fn func() float64) {
	if t == nil {
		return
	}
	t.Reg.GaugeFunc(name, fn)
	if t.opts.SampleInterval > 0 {
		t.specs = append(t.specs, &sampleSpec{name: name, series: ser, gauge: fn})
	}
}

// SampleCounterRate registers fn as a counter (when enabled) and samples its
// per-second rate, scaled by scale (e.g. 8 to convert a byte counter into
// bits/s), into ser on every tick. The first tick measures from the
// counter's value at registration time.
func (t *Telemetry) SampleCounterRate(name string, ser *stats.Series, scale float64, fn func() int64) {
	if t == nil {
		return
	}
	t.Reg.CounterFunc(name, fn)
	if t.opts.SampleInterval > 0 {
		t.specs = append(t.specs, &sampleSpec{name: name, series: ser, counter: fn, scale: scale, last: fn()})
	}
}

// StartSampling arms periodic sampling: the simulation driver then calls
// Pump at every boundary k·opts.SampleInterval up to and including stop
// (topo.Network.Run does this for built networks; manual engine users pump
// themselves). Sampling is deliberately pump-driven rather than
// engine-tick-driven: taking samples only with the simulation quiescent
// schedules no engine events, so an armed sampler leaves the event schedule —
// and the determinism digests — exactly as a passive run, on one engine or
// many (per-shard engines would each need their own tick event otherwise,
// breaking shards=1 ≡ shards=2).
//
// With opts.SampleAll, every counter and gauge registered so far is sampled
// by value in addition to the explicit SampleGauge/SampleCounterRate series.
// No-op unless sampling was enabled in Options.
func (t *Telemetry) StartSampling(stop sim.Time) {
	if t == nil || t.opts.SampleInterval <= 0 {
		return
	}
	if t.opts.SampleAll {
		explicit := make(map[string]bool, len(t.specs))
		for _, sp := range t.specs {
			explicit[sp.name] = true
		}
		t.Reg.each(func(name string, isCounter bool, _ float64) {
			if explicit[name] {
				t.walk = append(t.walk, nil)
				return
			}
			kind := stats.Gauge
			if isCounter {
				kind = stats.Counter
			}
			ser := &stats.Series{Name: name, Kind: kind}
			t.walk = append(t.walk, ser)
			t.specs = append(t.specs, &sampleSpec{name: name, series: ser})
		})
	}
	t.sampleArmed = true
	t.sampleStop = stop
}

// SampleInterval returns the armed sampling cadence (0 when sampling is off
// or t is nil) — the boundary spacing drivers pump at.
func (t *Telemetry) SampleInterval() sim.Time {
	if t == nil {
		return 0
	}
	return t.opts.SampleInterval
}

// Pump takes one sample of every armed series, stamped at now. The caller
// must be quiescent (no simulation goroutine running) with its clock exactly
// at now; boundaries past the armed stop time are ignored, so drivers may
// keep pumping through a drain phase without growing the series.
func (t *Telemetry) Pump(now sim.Time) {
	if t == nil || !t.sampleArmed || now > t.sampleStop {
		return
	}
	interval := t.opts.SampleInterval
	for _, sp := range t.specs {
		switch {
		case sp.counter != nil:
			cur := sp.counter()
			sp.series.Add(now, float64(cur-sp.last)*sp.scale/interval.Seconds())
			sp.last = cur
		case sp.gauge != nil:
			sp.series.Add(now, sp.gauge())
		}
	}
	if t.walk == nil {
		return
	}
	k := 0
	t.Reg.sampled(false, func(_ string, _ bool, v float64) {
		// Instruments registered after StartSampling walk last, unsampled.
		if k < len(t.walk) && t.walk[k] != nil {
			t.walk[k].Add(now, v)
		}
		k++
	})
}

// AllSeries returns every sampled time series in registration order (the
// explicit Sample* ones, then StartSampling's SampleAll expansion): the row
// order of series.csv.
func (t *Telemetry) AllSeries() []*stats.Series {
	if t == nil {
		return nil
	}
	out := make([]*stats.Series, len(t.specs))
	for i, sp := range t.specs {
		out[i] = sp.series
	}
	return out
}

// WriteDir exports everything collected into dir (created if needed):
// manifest.json (run manifest + final counter snapshot), series.csv (all
// sampled time series), flight.log (the shard-merged recorder events) and
// trace.json (the same events as Chrome trace_event spans, for
// chrome://tracing / Perfetto). Every file is written to a temp name and
// renamed into place, so an interrupted export never leaves a truncated
// artifact behind.
func (t *Telemetry) WriteDir(dir string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if t.Manifest != nil {
		if t.Manifest.Counters == nil {
			t.Manifest.AddCounters(t.Reg)
		}
		if err := writeFile(filepath.Join(dir, "manifest.json"), t.Manifest.WriteJSON); err != nil {
			return err
		}
	}
	if series := t.AllSeries(); len(series) > 0 {
		write := func(w io.Writer) error { return stats.WriteSeriesCSV(w, series) }
		if err := writeFile(filepath.Join(dir, "series.csv"), write); err != nil {
			return err
		}
	}
	if events := t.FlightEvents(); len(events) > 0 {
		dump := func(w io.Writer) error {
			return DumpEvents(w, events, t.FlightRecorded(), t.fr.Cap())
		}
		if err := writeFile(filepath.Join(dir, "flight.log"), dump); err != nil {
			return err
		}
		tr := func(w io.Writer) error {
			return WriteTraceJSON(w, events, 0, t.NodeNamer)
		}
		if err := writeFile(filepath.Join(dir, "trace.json"), tr); err != nil {
			return err
		}
	}
	return nil
}

// writeFile writes via a temp file in the same directory plus an atomic
// rename: readers either see the previous complete file or the new complete
// file, never a truncation, and a crashed export leaves the original intact.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
