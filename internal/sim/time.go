// Package sim provides the deterministic discrete-event simulation core used
// by every other package in this repository: an integer picosecond clock, a
// cancellable event scheduler backed by a binary heap, and bandwidth/
// serialization arithmetic.
//
// The engine is single-goroutine by design: determinism (bit-identical runs
// for a given seed) is a hard requirement for reproducing the paper's
// figures. Parallelism lives one level up, in internal/exp, which runs many
// independent engines concurrently.
package sim

import (
	"encoding/json"
	"fmt"
	"math"
)

// Time is a simulation timestamp or duration in integer picoseconds.
//
// Picoseconds keep all serialization delays exact: a 1000-byte frame on a
// 100 Gbps link takes exactly 80 ns = 80_000 ps. int64 picoseconds cover
// about 106 days of simulated time, far beyond any experiment here.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats t with an adaptive unit for logs and test output.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	}
}

// FromSeconds builds a Time from floating-point seconds, rounding to the
// nearest picosecond.
func FromSeconds(s float64) Time {
	if s >= 0 {
		return Time(s*float64(Second) + 0.5)
	}
	return Time(s*float64(Second) - 0.5)
}

// MarshalJSON writes t as a floating-point microsecond count, the time unit
// of every JSON plan schema (fault.Plan, scenario.Plan). Times below ~2^51 ps
// read back exactly.
func (t Time) MarshalJSON() ([]byte, error) { return json.Marshal(t.Micros()) }

// UnmarshalJSON reads a non-negative microsecond count, rounding to the
// picosecond grid; JSON null leaves t untouched. The int64 clock's range is
// checked on the float, BEFORE the conversion: converting NaN or an
// out-of-range float to int64 is implementation-defined in Go, so a
// converted-then-checked value can look plausible (even negative) while
// meaning nothing.
func (t *Time) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	var us float64
	if err := json.Unmarshal(b, &us); err != nil {
		return err
	}
	ps := math.Round(us * float64(Microsecond))
	if !(ps >= 0 && ps < 1<<63) {
		return fmt.Errorf("sim: time %v µs outside [0, %g)", us, float64(math.MaxInt64)/float64(Microsecond))
	}
	*t = Time(ps)
	return nil
}
