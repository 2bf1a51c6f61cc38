package main

import "fmt"

// validateShards sanity-checks the shard count (from -shards or -spec)
// before the run starts, so a bad value is a CLI error rather than a silent
// clamp deep in the topology builder. It returns the shard count to use plus
// any warnings to print: counts above the per-DC maximum clamp with a
// warning. Every plane is shard-safe (DESIGN.md, "Sharded faults"), so
// nothing else forces a fallback.
func validateShards(n int) (int, []string, error) {
	if n < 1 {
		return 0, nil, fmt.Errorf("-shards must be at least 1, got %d", n)
	}
	var warns []string
	if n > 2 {
		warns = append(warns, fmt.Sprintf("-shards %d clamped to 2: one engine-shard per datacenter", n))
		n = 2
	}
	return n, warns, nil
}
