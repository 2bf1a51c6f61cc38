package fault

import (
	"bytes"
	"fmt"
	"testing"

	"mlcc/internal/sim"
)

// FuzzNodeFaultPlan drives node-event plans end to end: parse → Apply against
// a synthetic two-node topology → run the engine, and check the injector's
// contract on whatever the fuzzer concocts. Apply must reject (never panic
// on) unknown nodes and kind-mismatched actions; an accepted plan must fire
// every hook in non-decreasing time order, each plan event exactly once with
// its own action.
func FuzzNodeFaultPlan(f *testing.F) {
	f.Add([]byte(`{"nodes":[{"at_us":1000,"node":"host0","action":"crash"},{"at_us":2000,"node":"host0","action":"restart"}]}`))
	f.Add([]byte(`{"nodes":[{"at_us":500,"node":"sw0","action":"fail"},{"at_us":900,"node":"sw0","action":"recover"}]}`))
	f.Add([]byte(`{"nodes":[{"at_us":3,"node":"host0","action":"fail"}]}`))
	f.Add([]byte(`{"nodes":[{"at_us":3,"node":"ghost","action":"crash"}]}`))
	f.Add([]byte(`{"nodes":[{"at_us":0,"node":"host0","action":"crash"},{"at_us":0,"node":"sw0","action":"recover"},{"at_us":0,"node":"host0","action":"crash"}]}`))
	f.Add([]byte(`{"seed":11,"nodes":[{"at_us":9.3e18,"node":"sw0","action":"fail"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(p.Events) > 0 || len(p.Loss) > 0 || len(p.Feedback) > 0 {
			return // this target owns the node surface; link/feedback plans have their own
		}
		eng := sim.NewEngine()
		type fire struct {
			at  sim.Time
			act NodeAction
		}
		var fired []fire
		resolver := func(name string) (*NodeHooks, error) {
			kind := NodeSwitch
			if name == "host0" {
				kind = NodeHost
			} else if name != "sw0" {
				return nil, fmt.Errorf("unknown node %q", name)
			}
			return &NodeHooks{
				ID:   1,
				Kind: kind,
				Engs: []*sim.Engine{eng},
				Apply: []func(NodeAction){func(act NodeAction) {
					fired = append(fired, fire{eng.Now(), act})
				}},
			}, nil
		}
		badLink := func(name string) (Link, error) { return Link{}, fmt.Errorf("no links here") }
		if _, err := Apply(p, badLink, resolver, []*sim.Engine{eng}, nil); err != nil {
			return // unknown node or kind-mismatched action: rejected, not panicked
		}
		eng.Run()
		if len(fired) != len(p.Nodes) {
			t.Fatalf("%d hooks fired for %d plan events", len(fired), len(p.Nodes))
		}
		var want, got [4]int64
		for _, ev := range p.Nodes {
			want[ev.Action]++
		}
		for _, f := range fired {
			got[f.act]++
		}
		if got != want {
			t.Fatalf("hooks fired per action %v do not match plan %v", got, want)
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				t.Fatalf("hooks fired out of time order: %v after %v", fired[i].at, fired[i-1].at)
			}
		}
	})
}
