package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Rate is a transmission or drain rate in bits per second.
type Rate int64

// Convenient rate units.
const (
	bps  Rate = 1
	kbps Rate = 1000 * bps
	Mbps Rate = 1000 * kbps
	Gbps Rate = 1000 * Mbps
)

// String formats r with an adaptive unit.
func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.3gGbps", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.3gMbps", float64(r)/float64(Mbps))
	case r >= kbps:
		return fmt.Sprintf("%.3gKbps", float64(r)/float64(kbps))
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// mulDiv computes a*b/div exactly through a 128-bit intermediate product.
// Inputs must be non-negative and div positive. ok is false when the
// quotient does not fit in int64; callers fall back to float64 then (the
// result is astronomically large, so picosecond/byte exactness is moot).
func mulDiv(a, b, div int64) (v int64, ok bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(div) {
		return 0, false // quotient would overflow uint64
	}
	q, _ := bits.Div64(hi, lo, uint64(div))
	if q > math.MaxInt64 {
		return 0, false
	}
	return int64(q), true
}

// satInt64 converts a non-negative float to int64, saturating at MaxInt64
// instead of the platform-dependent wrap of an overflowing conversion.
func satInt64(f float64) int64 {
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(f)
}

// TxTime is the serialization delay of size bytes at rate r.
// TxTime panics if r is not positive: transmitting at zero rate never
// completes and indicates a configuration bug.
func TxTime(size int, r Rate) Time {
	if r <= 0 {
		panic(fmt.Sprintf("sim: TxTime with non-positive rate %d", r))
	}
	// Exact integer math (128-bit intermediate) covers every real transfer;
	// the float fallback only triggers when the delay itself overflows Time.
	if v, ok := mulDiv(int64(size)*8, int64(Second), int64(r)); ok {
		return Time(v)
	}
	return Time(satInt64(float64(size) * 8 * float64(Second) / float64(r)))
}

// bytesOver reports how many whole bytes rate r delivers during d:
// r/8 bits per second over d, computed as r*d / (8*Second) with exact
// integer math so token buckets and INT utilization estimates never see
// float truncation off-by-ones.
func bytesOver(r Rate, d Time) int64 {
	if d <= 0 || r <= 0 {
		return 0
	}
	if v, ok := mulDiv(int64(r), int64(d), 8*int64(Second)); ok {
		return v
	}
	return satInt64(float64(r) * d.Seconds() / 8)
}

// BDPBytes is the bandwidth-delay product of rate r over round-trip rtt,
// in bytes.
func BDPBytes(r Rate, rtt Time) int64 {
	return bytesOver(r, rtt)
}

// ClampRate bounds r to [lo, hi].
func ClampRate(r, lo, hi Rate) Rate {
	if r < lo {
		return lo
	}
	if r > hi {
		return hi
	}
	return r
}
