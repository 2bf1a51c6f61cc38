package scenario

import (
	"encoding/json"
	"fmt"
	"io"
)

// The struct tags on Plan, Collective, Incast, Shuffle and Tenant are the
// JSON scenario schema: microseconds (sim.Time marshals itself), byte
// counts and plain fractions, like the fault-plan format.
//
//	{
//	  "seed": 7,
//	  "name": "mixed",
//	  "poll_us": 100,
//	  "collectives": [
//	    {"name": "ring", "workers": 8, "tensor_bytes": 65536,
//	     "phases": 4, "start_us": 0, "gap_us": 5}
//	  ],
//	  "incasts": [
//	    {"name": "burst", "dst": 0, "fan_in": 3, "bytes": 65536,
//	     "start_us": 0, "waves": 2, "interval_us": 500, "cross": false}
//	  ],
//	  "shuffles": [
//	    {"name": "shuffle", "workers": 8, "bytes": 32768,
//	     "start_us": 1000, "stagger_us": 10}
//	  ],
//	  "tenants": [
//	    {"name": "web", "workload": "websearch", "intra_load": 0.3,
//	     "cross_load": 0.1, "start_us": 0, "duration_us": 2000}
//	  ]
//	}
//
// "hosts" on a collective or shuffle pins explicit worker placement and
// overrides "workers". Tenant workloads name a flow-size CDF ("websearch",
// "hadoop").

// ReadPlan parses a JSON scenario plan, rejecting unknown fields, and
// validates it.
func ReadPlan(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	p := &Plan{}
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("scenario: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
