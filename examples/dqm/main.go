// DQM: watch the receiver-side DCI switch queue being managed.
//
// Four cross-DC flows (25G senders) converge on two 25G receivers, so each
// flow's fair share is 12.5 Gbps and the first cross-DC RTT's worth of
// excess lands in the DCI per-flow queues. The DQM algorithm then feeds
// R̄_DQM back to the senders until the per-flow queuing delay settles at the
// target D_t. The program prints the DCI backlog under three θ settings.
package main

import (
	"fmt"
	"log"

	"mlcc"
)

func main() {
	thetas := []mlcc.Time{6 * mlcc.Millisecond, 18 * mlcc.Millisecond, 30 * mlcc.Millisecond}
	for _, theta := range thetas {
		fmt.Printf("=== θ = %v, D_t = 1ms ===\n", theta)
		run(theta)
		fmt.Println()
	}
}

func run(theta mlcc.Time) {
	nw, err := mlcc.NewNetwork(mlcc.Config{
		Algorithm:    "mlcc",
		HostsPerLeaf: 4,
		Theta:        theta,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		nw.AddFlow(nw.RackHost(1, i), nw.RackHost(5, i/2), 1<<30, mlcc.Millisecond)
	}
	fmt.Printf("%10s %14s\n", "time", "DCI queue (MB)")
	for t := 5 * mlcc.Millisecond; t <= 50*mlcc.Millisecond; t += 5 * mlcc.Millisecond {
		nw.RunUntil(t)
		fmt.Printf("%10v %14.2f\n", t, float64(nw.DCIQueueBytes(1))/(1<<20))
	}
	fmt.Println("target per-flow backlog: 12.5 Gbps × 1 ms ≈ 1.5 MB (×4 flows ≈ 6 MB)")
}
