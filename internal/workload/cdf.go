// Package workload generates the evaluation traffic: flow sizes drawn from
// the published Websearch (DCTCP) and Hadoop (Facebook) distributions and
// open-loop Poisson arrivals that hit a configured fraction of each server's
// line rate, split between intra- and cross-datacenter destinations.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// CDF is a piecewise-linear flow-size distribution: P(size <= sizes[i]) =
// probs[i]. Sampling uses inverse-transform with linear interpolation
// between points, the same scheme as the HPCC/ns-3 traffic generators.
type CDF struct {
	name  string
	sizes []int64   // bytes, ascending
	probs []float64 // cumulative probability, ascending, ending at 1
}

// validate checks monotonicity and domains; builders panic on malformed
// tables. A valid table guarantees Sample stays inside [sizes[0], sizes[n-1]]
// and Mean is finite and positive. NaN probabilities are rejected explicitly:
// they slide through ordering comparisons (every comparison with NaN is
// false), which is exactly the kind of silent miscount fuzzing flushed out.
func (c *CDF) validate() error {
	if len(c.sizes) != len(c.probs) || len(c.sizes) < 2 {
		return fmt.Errorf("workload: CDF %q needs matching sizes/probs (≥2 points)", c.name)
	}
	if c.sizes[0] < 1 {
		return fmt.Errorf("workload: CDF %q smallest size %d < 1 byte", c.name, c.sizes[0])
	}
	for i, p := range c.probs {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return fmt.Errorf("workload: CDF %q probability %v at %d outside [0, 1]", c.name, p, i)
		}
	}
	for i := 1; i < len(c.sizes); i++ {
		if c.sizes[i] < c.sizes[i-1] || c.probs[i] < c.probs[i-1] {
			return fmt.Errorf("workload: CDF %q not monotone at %d", c.name, i)
		}
	}
	if c.probs[len(c.probs)-1] != 1 {
		return fmt.Errorf("workload: CDF %q does not end at probability 1", c.name)
	}
	return nil
}

// sample draws one flow size.
func (c *CDF) sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(c.probs, u)
	if i == 0 {
		return c.sizes[0]
	}
	if i >= len(c.probs) {
		return c.sizes[len(c.sizes)-1]
	}
	p0, p1 := c.probs[i-1], c.probs[i]
	s0, s1 := c.sizes[i-1], c.sizes[i]
	if p1 == p0 {
		return s1
	}
	frac := (u - p0) / (p1 - p0)
	// Bound the offset BEFORE converting: for spans beyond 2^53 bytes the
	// float64 rounding of s1-s0 can push frac*span past the segment end, and
	// converting an out-of-range float64 to int64 is implementation-defined.
	off := frac * float64(s1-s0)
	if !(off < float64(s1-s0)) {
		return s1
	}
	size := s0 + int64(off)
	if size < s0 {
		size = s0
	}
	if size > s1 {
		size = s1
	}
	return size
}

// mean returns the distribution's expected flow size in bytes: the point
// mass at the first size (probs[0], zero in the built-in tables) plus the
// integral over the piecewise-linear segments.
func (c *CDF) mean() float64 {
	mean := c.probs[0] * float64(c.sizes[0])
	for i := 1; i < len(c.sizes); i++ {
		dp := c.probs[i] - c.probs[i-1]
		// Convert each size separately: the int64 sum overflows for sizes
		// near MaxInt64, which are legal in a validated table.
		mean += dp * (float64(c.sizes[i-1]) + float64(c.sizes[i])) / 2
	}
	return mean
}

// Websearch returns the DCTCP web-search flow-size distribution
// (Alizadeh et al., SIGCOMM 2010), as distributed with the HPCC simulator.
func Websearch() *CDF {
	c := &CDF{
		name:  "websearch",
		sizes: []int64{1, 10_000, 20_000, 30_000, 50_000, 80_000, 200_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000, 30_000_000},
		probs: []float64{0, 0.15, 0.20, 0.30, 0.40, 0.53, 0.60, 0.70, 0.80, 0.90, 0.97, 1},
	}
	mustValid(c)
	return c
}

// Hadoop returns the Facebook Hadoop flow-size distribution
// (Roy et al., SIGCOMM 2015), as distributed with the HPCC simulator:
// dominated by sub-4KB flows with a heavy tail to 10 MB.
func Hadoop() *CDF {
	c := &CDF{
		name:  "hadoop",
		sizes: []int64{1, 180, 216, 560, 900, 1_100, 1_870, 3_160, 10_000, 30_000, 100_000, 1_000_000, 10_000_000},
		probs: []float64{0, 0.10, 0.15, 0.20, 0.30, 0.40, 0.53, 0.60, 0.70, 0.80, 0.90, 0.95, 1},
	}
	mustValid(c)
	return c
}

// ByName returns a distribution by name ("websearch" or "hadoop").
func ByName(name string) (*CDF, error) {
	switch name {
	case "websearch":
		return Websearch(), nil
	case "hadoop":
		return Hadoop(), nil
	default:
		return nil, fmt.Errorf("workload: unknown distribution %q", name)
	}
}

func mustValid(c *CDF) {
	if err := c.validate(); err != nil {
		panic(err)
	}
}
