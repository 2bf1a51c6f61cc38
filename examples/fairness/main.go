// Fairness: reproduce the paper's motivation experiment 2 interactively.
// Four intra-DC flows (Rack 1 → Rack 2) share Rack 1's uplinks with four
// cross-DC flows (Rack 1 → Rack 5) that join later. Under end-to-end
// congestion control the two classes share unfairly; MLCC's near-source
// loop converges both classes to the fair split.
//
// The program runs the same scenario under DCQCN and MLCC and prints the
// class throughputs every 5 ms.
package main

import (
	"fmt"
	"log"

	"mlcc"
)

func main() {
	for _, alg := range []string{"dcqcn", "mlcc"} {
		fmt.Printf("=== %s ===\n", alg)
		run(alg)
		fmt.Println()
	}
}

func run(alg string) {
	nw, err := mlcc.NewNetwork(mlcc.Config{
		Algorithm:    alg,
		SpinesPerDC:  1, // single uplink per rack: a clear sender-side bottleneck
		HostsPerLeaf: 8,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}

	const size = 1 << 30 // long-lived
	var intra, cross []*mlcc.Flow
	for i := 0; i < 4; i++ {
		intra = append(intra, nw.AddFlow(nw.RackHost(1, i), nw.RackHost(2, i), size, mlcc.Millisecond))
	}
	for i := 0; i < 4; i++ {
		start := 2*mlcc.Millisecond + mlcc.Time(i)*2*mlcc.Millisecond
		cross = append(cross, nw.AddFlow(nw.RackHost(1, 4+i), nw.RackHost(5, i), size, start))
	}

	sum := func(fs []*mlcc.Flow) int64 {
		var b int64
		for _, f := range fs {
			b += f.ReceivedBytes()
		}
		return b
	}

	fmt.Printf("%8s %12s %12s %12s\n", "time", "intra Gbps", "cross Gbps", "intra share")
	lastI, lastC := int64(0), int64(0)
	for t := 5 * mlcc.Millisecond; t <= 30*mlcc.Millisecond; t += 5 * mlcc.Millisecond {
		nw.RunUntil(t)
		i, c := sum(intra), sum(cross)
		gi := float64(i-lastI) * 8 / (5 * mlcc.Millisecond).Seconds() / 1e9
		gc := float64(c-lastC) * 8 / (5 * mlcc.Millisecond).Seconds() / 1e9
		share := 0.0
		if gi+gc > 0 {
			share = gi / (gi + gc)
		}
		fmt.Printf("%8v %12.1f %12.1f %12.2f\n", t, gi, gc, share)
		lastI, lastC = i, c
	}
	fmt.Println("fair share once all eight flows run: 0.50")
}
