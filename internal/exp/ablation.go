package exp

import (
	"mlcc/internal/sim"
	"mlcc/internal/topo"
)

func init() {
	register(Experiment{
		ID:    "ablation",
		Title: "MLCC ablation: contribution of the near-source and DQM loops",
		Run:   runAblation,
	})
}

// runAblation quantifies the design choices DESIGN.md calls out, by removing
// one loop at a time:
//
//   - Sender-side scenario (fig7 shape): without the near-source loop the
//     sender only learns about sender-side congestion when it inflates the
//     DCI queue; convergence degrades and the queue grows.
//   - Receiver-side scenario (fig9 shape): without DQM nothing drains the
//     receiver-side DCI queue below "whatever accumulated during the first
//     RTT_C"; the standing queue stays large.
func runAblation(cfg Config) (*Report, error) {
	rep := &Report{ID: "ablation", Title: "MLCC ablation: contribution of the near-source and DQM loops"}
	variants := []string{topo.AlgMLCC, topo.AlgMLCCNoNS, topo.AlgMLCCNoDQM}

	window := 50 * sim.Millisecond
	steady := 35 * sim.Millisecond
	if cfg.Scale == Quick {
		window, steady = 36*sim.Millisecond, 24*sim.Millisecond
	}

	// Two runs per variant: results[2*v] is the sender-side bottleneck
	// (8×25G into one 100G uplink), results[2*v+1] the receiver-side one
	// (4 flows into two 25G servers).
	results, err := sweep(cfg.Workers, 2*len(variants), func(i int) (*convergenceResult, error) {
		p := topo.DefaultParams().WithAlgorithm(variants[i/2])
		p.Seed = cfg.Seed
		nf, perDst := 4, 2
		if i%2 == 0 {
			p.SpinesPerDC = 1
			p.HostsPerLeaf = 8
			nf, perDst = 8, 1
		}
		n := topo.TwoDC(p)
		var pairs [][2]int
		for j := 0; j < nf; j++ {
			pairs = append(pairs, [2]int{n.RackHost(1, j), n.RackHost(5, j/perDst)})
		}
		starts := make([]sim.Time, len(pairs))
		for j := range starts {
			starts[j] = sim.Millisecond
		}
		return runConvergence(cfg, p, pairs, starts, window, steady), nil
	})
	if err != nil {
		return nil, err
	}

	tbl := NewTable("Loop contributions", "", "sendJain", "sendMeanGbps", "recvJain", "recvDciQMB")
	for v, alg := range variants {
		send, recv := results[2*v], results[2*v+1]
		_, _, mean := summarize(send.rates)
		tbl.AddRow(alg, send.jain, mean/1e9, recv.jain, recv.dciQ.AvgAfter(steady)/(1<<20))
		rep.Manifests = append(rep.Manifests, send.man, recv.man)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddNote("mlcc-nons must show degraded sender-side convergence; mlcc-nodqm must show a much larger standing receiver-side DCI queue")
	return rep, nil
}
