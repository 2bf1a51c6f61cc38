package mlcc

import (
	"fmt"
	"reflect"
	"testing"

	"mlcc/internal/fault"
	"mlcc/internal/host"
	"mlcc/internal/pkt"
	"mlcc/internal/stats"
	"mlcc/internal/workload"
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
	if res.Flows == 0 || res.Done == 0 {
		t.Fatalf("flows=%d done=%d", res.Flows, res.Done)
	}
	if res.Done+res.Aborted+res.Unfinished != res.Flows {
		t.Fatal("flow-fate accounting broken")
	}
	if res.AvgFCTIntra <= 0 {
		t.Fatalf("intra avg FCT = %v", res.AvgFCTIntra)
	}
	// FCT is measured at the receiver, so a tiny cross-DC flow costs at
	// least the one-way long-haul latency (~3 ms).
	if res.AvgFCTCross <= 3*Millisecond {
		t.Fatalf("cross avg FCT = %v, must exceed one-way latency", res.AvgFCTCross)
	}
	if res.FCT.Len() != res.Done {
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
	if res.Done == 0 {
		t.Fatal("no flows completed on dumbbell")
	}
}

// TestNetworkAPI drives ExampleNewNetwork's transfer at one and two shards,
// observing a DCI queue between RunUntil calls with every engine parked: the
// flow completes with the same FCT on both.
func TestNetworkAPI(t *testing.T) {
	fcts := map[int]Time{}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			nw, err := NewNetwork(Config{Algorithm: "mlcc", Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			f := nw.AddFlow(nw.RackHost(1, 0), nw.RackHost(5, 0), 1<<20, Millisecond)
			nw.RunUntil(4 * Millisecond)
			if q := nw.DCIQueueBytes(1); q < 0 { // may legitimately be zero for a single flow
				t.Fatalf("DCIQueueBytes(1) = %d", q)
			}
			nw.RunUntil(50 * Millisecond)
			if !f.Done() || f.FCT() <= 0 {
				t.Fatalf("flow done=%v fct=%v", f.Done(), f.FCT())
			}
			fcts[shards] = f.FCT()
		})
	}
	if fcts[1] != fcts[2] {
		t.Errorf("FCT %v at one shard, %v at two", fcts[1], fcts[2])
	}
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(Config{Algorithm: "nah"}); err == nil {
		t.Fatal("unknown algorithm accepted")
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
	_, err := Run(Config{Flows: []workload.FlowSpec{{Src: 0, Dst: 9999, Size: 1000}}})
	if err == nil {
		t.Fatal("out-of-range trace accepted")
	}
}

// TestAbortOfAFinishedFlowCountsOnce runs two mirrored 1 MiB cross-DC flows
// with every feedback frame to host0 dropped: host0's receiver takes its
// whole flow, but host0's sender never hears an ACK and gives up after one
// retransmission. Result counts each flow's fate once (Done + Aborted +
// Unfinished = Flows), flow 1 counts as done with its receiver's completion
// as its FCT (the later abort writes only the sender's AbortAt), and the
// failure gate is topo.Summary.Failures of the same run.
func TestAbortOfAFinishedFlowCountsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for _, shards := range []int{1, 2} {
		cfg := Config{
			HostsPerLeaf:  1,
			LongHaulDelay: 200 * Microsecond,
			RTOMax:        400 * Microsecond,
			MaxRetrans:    1,
			Shards:        shards,
			Seed:          1,
			Flows: []workload.FlowSpec{
				{Src: 0, Dst: 4, Size: 1 << 20, Cross: true},
				{Src: 4, Dst: 0, Size: 1 << 20, Cross: true},
			},
			Fault: &fault.Plan{Feedback: []fault.FeedbackRule{{Host: "host0", Drop: 1}}},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Done+res.Aborted+res.Unfinished != res.Flows || res.Unfinished < 0 {
			t.Errorf("shards %d: %d flows = %d done + %d aborted + %d unfinished",
				shards, res.Flows, res.Done, res.Aborted, res.Unfinished)
		}
		b, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		var received Time // flow 1's completion, as its receiver saw it
		rx := b.Net.Hosts[4]
		rx.OnFlowDone = func(*host.Flow) { received = rx.Eng.Now() }
		sum := b.Run("test", nil).Summary
		if got, want := res.Failures(false), sum.Failures(false); !reflect.DeepEqual(got, want) {
			t.Errorf("shards %d: Result.Failures = %q, topo.Summary.Failures = %q", shards, got, want)
		}
		f := b.Net.Table.Get(1)
		if !f.Done || !f.Aborted || received == 0 || f.AbortAt <= received {
			t.Fatalf("shards %d: flow 1 done=%v aborted=%v, received at %v, aborted at %v; want done, then aborted",
				shards, f.Done, f.Aborted, received, f.AbortAt)
		}
		for _, s := range [][]stats.FCTSample{sum.Samples, res.Samples} {
			if got, want := s[0].FCT, received-f.Start; got != want {
				t.Errorf("shards %d: flow 1's FCT = %v, want its receiver's completion %v, not the abort at %v",
					shards, got, want, f.AbortAt)
			}
		}
	}
}

// TestAveragesSkipAbortedFlows downs the long haul for good while one large
// cross-DC flow is in flight, so it aborts; FCT holds exactly the four done
// flows, and the averages and tails are over them.
func TestAveragesSkipAbortedFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	res, err := Run(Config{
		HostsPerLeaf:  2,
		LongHaulDelay: 100 * Microsecond,
		RTOMax:        2 * Millisecond,
		MaxRetrans:    2,
		Seed:          1,
		Flows: []workload.FlowSpec{
			{Src: 0, Dst: 2, Size: 40_000},
			{Src: 1, Dst: 5, Size: 200_000},
			{Src: 3, Dst: 0, Size: 10_000, Start: 50 * Microsecond},
			{Src: 4, Dst: 9, Size: 1_000, Cross: true},
			{Src: 6, Dst: 12, Size: 10 << 20, Cross: true},
		},
		Fault: &fault.Plan{Events: []fault.Event{{At: 300 * Microsecond, Link: "longhaul", Action: fault.LinkDown}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted != 1 || res.Done != 4 {
		t.Fatalf("%d done, %d aborted; want 4 and 1", res.Done, res.Aborted)
	}
	if res.FCT.Len() != 4 || len(res.Samples) != 4 || !reflect.DeepEqual(res.IDs, []pkt.FlowID{1, 2, 3, 4}) {
		t.Fatalf("FCT holds %d samples, Samples %d of flows %v; want the 4 done flows 1-4", res.FCT.Len(), len(res.Samples), res.IDs)
	}
	var sum, intra Time
	var cross []Time
	for _, s := range res.Samples {
		switch {
		case s.Cross:
			cross = append(cross, s.FCT)
			sum += s.FCT
		default:
			intra = max(intra, s.FCT)
			sum += s.FCT
		}
	}
	if want := sum / 4; res.AvgFCT != want {
		t.Errorf("AvgFCT = %v, want the done flows' mean %v", res.AvgFCT, want)
	}
	if len(cross) != 1 || res.AvgFCTCross != cross[0] || res.P999Cross != cross[0] {
		t.Errorf("cross avg %v, p99.9 %v; want both the one done cross flow's %v", res.AvgFCTCross, res.P999Cross, cross)
	}
	if res.P999Intra != intra {
		t.Errorf("intra p99.9 = %v, want the slowest done intra flow's %v", res.P999Intra, intra)
	}
}
