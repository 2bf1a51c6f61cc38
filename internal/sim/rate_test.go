package sim

import (
	"math/big"
	"math/rand"
	"testing"
)

// exactRatio computes a*b/div with arbitrary precision, the reference for
// the integer fast paths in rate.go.
func exactRatio(a, b, div int64) int64 {
	v := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
	v.Div(v, big.NewInt(div))
	return v.Int64()
}

// Property: bytesOver, BDPBytes and TxTime are exact integer
// arithmetic for every input whose result fits int64.
func TestRateMathExactProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200_000; i++ {
		r := rng.Int63n(400*int64(Gbps)) + 1
		d := Time(rng.Int63n(int64(100 * Millisecond)))
		if got, want := bytesOver(Rate(r), d), exactRatio(r, int64(d), 8*int64(Second)); got != want {
			t.Fatalf("bytesOver(%d, %d) = %d, want %d", r, d, got, want)
		}
		if got, want := BDPBytes(Rate(r), d), exactRatio(r, int64(d), 8*int64(Second)); got != want {
			t.Fatalf("BDPBytes(%d, %d) = %d, want %d", r, d, got, want)
		}
		size := int(rng.Int63n(64 << 10))
		if got, want := TxTime(size, Rate(r)), Time(exactRatio(int64(size)*8, int64(Second), r)); got != want {
			t.Fatalf("TxTime(%d, %d) = %d, want %d", size, r, got, want)
		}
	}
}

// The float fallback still engages when the exact quotient overflows int64.
func TestRateMathOverflowFallback(t *testing.T) {
	// Just require no panic and a positive saturating answer.
	if got := TxTime(1<<40, 1); got <= 0 {
		t.Fatalf("TxTime(huge, 1bps) = %d, want positive", got)
	}
}

func TestBytesOverZeroAndNegative(t *testing.T) {
	if got := bytesOver(Gbps, 0); got != 0 {
		t.Fatalf("bytesOver(_, 0) = %d", got)
	}
	if got := bytesOver(Gbps, -Millisecond); got != 0 {
		t.Fatalf("bytesOver(_, <0) = %d", got)
	}
	if got := bytesOver(0, Millisecond); got != 0 {
		t.Fatalf("bytesOver(0, _) = %d", got)
	}
}
