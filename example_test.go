package mlcc_test

import (
	"fmt"
	"log"

	"mlcc"
)

// Run one Websearch workload under MLCC and print its FCT summary: the
// smallest useful program against the public API.
func ExampleRun() {
	res, err := mlcc.Run(mlcc.Config{
		Algorithm: "mlcc",
		Workload:  "websearch",
		IntraLoad: 0.5, // 50% of per-host bisection capacity
		CrossLoad: 0.2, // 20% of the 100G inter-DC fiber
		Duration:  2 * mlcc.Millisecond,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flows completed:    %d/%d\n", res.Done, res.Flows)
	fmt.Printf("avg FCT (intra-DC): %v\n", res.AvgFCTIntra)
	fmt.Printf("avg FCT (cross-DC): %v\n", res.AvgFCTCross)
	fmt.Printf("p99.9 FCT intra:    %v\n", res.P999Intra)
	fmt.Printf("PFC pause events:   %d\n", res.PFCPauses)
	fmt.Printf("failures:           %d\n", len(res.Failures(false)))
	// Output:
	// flows completed:    115/115
	// avg FCT (intra-DC): 633.593us
	// avg FCT (cross-DC): 6.322ms
	// p99.9 FCT intra:    8.033ms
	// PFC pause events:   0
	// failures:           0
}

// A miniature of the paper's Fig. 11: the same Websearch workload under
// every congestion-control algorithm, average flow completion times side by
// side.
func ExampleAlgorithms() {
	fmt.Printf("%-10s %14s %14s %12s %5s\n", "algorithm", "intra avg FCT", "cross avg FCT", "p999 intra", "PFC")
	for _, alg := range mlcc.Algorithms() {
		res, err := mlcc.Run(mlcc.Config{
			Algorithm: alg,
			Workload:  "websearch",
			IntraLoad: 0.5,
			CrossLoad: 0.2,
			Duration:  2 * mlcc.Millisecond,
			Seed:      7,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %14v %14v %12v %5d\n", alg, res.AvgFCTIntra, res.AvgFCTCross, res.P999Intra, res.PFCPauses)
	}
	// Output:
	// algorithm   intra avg FCT  cross avg FCT   p999 intra   PFC
	// dcqcn             1.103ms        4.143ms     17.547ms     0
	// hpcc            839.795us        4.404ms     15.681ms     0
	// mlcc            839.692us        4.405ms     15.681ms     0
	// powertcp        839.072us        4.400ms     15.713ms     0
	// timely          959.944us        4.388ms     17.206ms    35
}

// Place one 1 MiB transfer by hand from rack 1 (DC 0) to rack 5 (DC 1),
// advance the clock and read the flow's completion time and the
// receiver-side DCI's queue.
func ExampleNewNetwork() {
	nw, err := mlcc.NewNetwork(mlcc.Config{Algorithm: "mlcc"})
	if err != nil {
		log.Fatal(err)
	}
	f := nw.AddFlow(nw.RackHost(1, 0), nw.RackHost(5, 0), 1<<20, mlcc.Millisecond)
	nw.RunUntil(50 * mlcc.Millisecond)
	fmt.Println(f.Done(), f.FCT(), nw.DCIQueueBytes(1))
	// Output:
	// true 3.370ms 0
}
