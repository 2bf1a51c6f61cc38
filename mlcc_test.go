package mlcc

import (
	"fmt"
	"testing"
)

func TestAlgorithmsAndWorkloads(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 5 {
		t.Fatalf("algorithms = %v", algs)
	}
	found := map[string]bool{}
	for _, a := range algs {
		found[a] = true
	}
	for _, want := range []string{"mlcc", "dcqcn", "timely", "hpcc", "powertcp"} {
		if !found[want] {
			t.Errorf("missing algorithm %q", want)
		}
	}
	if w := Workloads(); len(w) != 2 {
		t.Fatalf("workloads = %v", w)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Algorithm: "bogus", IntraLoad: 0.1}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Run(Config{Workload: "bogus", IntraLoad: 0.1}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run(Config{}); err == nil {
		t.Fatal("zero load accepted")
	}
}

func TestRunSmallWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	res, err := Run(Config{
		Algorithm: "mlcc",
		Workload:  "hadoop",
		IntraLoad: 0.2,
		CrossLoad: 0.1,
		Duration:  Millisecond,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows == 0 || res.Completed == 0 {
		t.Fatalf("flows=%d completed=%d", res.Flows, res.Completed)
	}
	if res.Unfinished != res.Flows-res.Completed {
		t.Fatal("unfinished accounting broken")
	}
	if res.AvgFCTIntra <= 0 {
		t.Fatalf("intra avg FCT = %v", res.AvgFCTIntra)
	}
	// FCT is measured at the receiver, so a tiny cross-DC flow costs at
	// least the one-way long-haul latency (~3 ms).
	if res.AvgFCTCross <= 3*Millisecond {
		t.Fatalf("cross avg FCT = %v, must exceed one-way latency", res.AvgFCTCross)
	}
	if res.FCT.Len() != res.Completed {
		t.Fatal("collector length mismatch")
	}
}

func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := Config{Workload: "hadoop", IntraLoad: 0.2, CrossLoad: 0.05, Duration: Millisecond, Seed: 11}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgFCT != b.AvgFCT || a.Flows != b.Flows || a.PFCPauses != b.PFCPauses {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestRunDumbbell(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	res, err := Run(Config{
		Dumbbell:  true,
		Workload:  "hadoop",
		IntraLoad: 0.3,
		CrossLoad: 0.2,
		Duration:  Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no flows completed on dumbbell")
	}
}

func TestNetworkAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			nw, err := NewNetwork(Config{Algorithm: "mlcc", HostsPerLeaf: 4, Seed: 1, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if nw.NumHosts() != 32 || nw.HostsPerDC() != 16 {
				t.Fatalf("hosts = %d/%d", nw.NumHosts(), nw.HostsPerDC())
			}
			if !nw.CrossDC(0, 16) || nw.CrossDC(0, 1) {
				t.Fatal("CrossDC broken")
			}
			if nw.CrossRTT() < 6*Millisecond {
				t.Fatalf("CrossRTT = %v", nw.CrossRTT())
			}
			if nw.IntraRTT() > 30*Microsecond {
				t.Fatalf("IntraRTT = %v", nw.IntraRTT())
			}

			f := nw.AddFlow(nw.RackHost(1, 0), nw.RackHost(5, 0), 1<<20, Millisecond)
			// Observe between RunUntil calls, with every engine parked.
			nw.RunUntil(4 * Millisecond)
			if q := nw.DCIQueueBytes(1); q < 0 { // may legitimately be zero for a single flow
				t.Fatalf("DCIQueueBytes(1) = %d", q)
			}
			nw.RunUntil(60 * Millisecond)
			if !f.Done() {
				t.Fatalf("flow incomplete: %d/%d bytes", f.ReceivedBytes(), f.Size())
			}
			if f.FCT() <= 0 || f.Size() != 1<<20 {
				t.Fatalf("flow accessors broken: fct=%v size=%d", f.FCT(), f.Size())
			}
			if nw.Now() != 60*Millisecond {
				t.Fatalf("Now = %v", nw.Now())
			}
			if nw.LeafQueueBytes(1) < 0 || nw.PFCPauses() < 0 {
				t.Fatal("negative counters")
			}
		})
	}
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(Config{Algorithm: "nah"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestExperimentAPI(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 14 {
		t.Fatalf("experiments = %v", ids)
	}
	if _, err := Experiment("nope", false, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentRunsFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	rep, err := Experiment("fig10", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig10" || len(rep.Tables) == 0 {
		t.Fatalf("bad report: %+v", rep)
	}
}

func TestTraceReplayMatchesGeneratedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := Config{Workload: "hadoop", IntraLoad: 0.2, CrossLoad: 0.1, Duration: Millisecond, Seed: 5}
	orig, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Trace) != orig.Flows {
		t.Fatalf("trace has %d flows, ran %d", len(orig.Trace), orig.Flows)
	}
	replay, err := Run(Config{Workload: "hadoop", Duration: Millisecond, Seed: 5, Flows: orig.Trace})
	if err != nil {
		t.Fatal(err)
	}
	if replay.AvgFCT != orig.AvgFCT || replay.Flows != orig.Flows {
		t.Fatalf("replay diverged: %v/%d vs %v/%d",
			replay.AvgFCT, replay.Flows, orig.AvgFCT, orig.Flows)
	}
}

func TestTraceReplayValidatesHosts(t *testing.T) {
	_, err := Run(Config{Flows: []FlowSpec{{Src: 0, Dst: 9999, Size: 1000}}})
	if err == nil {
		t.Fatal("out-of-range trace accepted")
	}
}
