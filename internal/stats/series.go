package stats

import (
	"fmt"
	"io"
	"strings"

	"mlcc/internal/sim"
)

// Kind labels what a series measures: the "kind" column of WriteSeriesCSV.
type Kind string

// Series kinds.
const (
	FlowRate Kind = "flow_rate" // bits/s
	QueueLen Kind = "queue_len" // bytes
	Counter  Kind = "counter"   // unitless cumulative counter (PFC pauses, drops)
	Gauge    Kind = "gauge"     // any other instantaneous value
)

// Series is a sampled time series (queue length in bytes, throughput in
// bits/s, …): the one time-series type of the repository. The telemetry
// layer samples into it, figures summarize it, WriteSeriesCSV exports it.
type Series struct {
	Name string
	Kind Kind
	T    []sim.Time
	V    []float64
}

// Add appends one point. Timestamps must be non-decreasing; appending out of
// order panics, because the windowed summaries and the CSV export both rely
// on sample order, and a time-travelling sample is always a bug in the caller
// (the same stance the engine takes on scheduling into the past).
func (s *Series) Add(t sim.Time, v float64) {
	if n := len(s.T); n > 0 && t < s.T[n-1] {
		panic(fmt.Sprintf("stats: series %q: sample at %v before last sample %v", s.Name, t, s.T[n-1]))
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.T) }

// Max returns the maximum value, or 0 when empty. The maximum is taken over
// the actual values (initialized from the first element), so all-negative
// series report their true maximum rather than 0.
func (s *Series) Max() float64 {
	if len(s.V) == 0 {
		return 0
	}
	m := s.V[0]
	for _, v := range s.V[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Last returns the final value, or 0 when empty.
func (s *Series) Last() float64 {
	if len(s.V) == 0 {
		return 0
	}
	return s.V[len(s.V)-1]
}

// AvgAfter averages values with timestamps >= t (steady-state summaries).
func (s *Series) AvgAfter(t sim.Time) float64 {
	var sum float64
	n := 0
	for i, ts := range s.T {
		if ts >= t {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WriteSeriesCSV emits the series, in the order given, in long form: one
// "stream,kind,time_ms,value" row per point.
func WriteSeriesCSV(w io.Writer, series []*Series) error {
	if _, err := fmt.Fprintln(w, "stream,kind,time_ms,value"); err != nil {
		return err
	}
	for _, s := range series {
		name := csvEscape(s.Name)
		for i, t := range s.T {
			if _, err := fmt.Fprintf(w, "%s,%s,%.6f,%.6f\n", name, s.Kind, t.Millis(), s.V[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// csvEscape guards series names containing commas, quotes or newlines.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
