package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// The struct tags on Plan, Event, LossRule, FeedbackRule and NodeEvent are
// the JSON plan schema. Times are microseconds (sim.Time marshals itself),
// probabilities plain fractions, so plans are easy to write by hand:
//
//	{
//	  "seed": 7,
//	  "events": [
//	    {"at_us": 8000, "link": "longhaul", "action": "down"},
//	    {"at_us": 10000, "link": "longhaul", "action": "up"},
//	    {"at_us": 20000, "link": "longhaul", "action": "degrade",
//	     "rate_factor": 0.5, "extra_delay_us": 500, "jitter_us": 20},
//	    {"at_us": 26000, "link": "longhaul", "action": "restore"}
//	  ],
//	  "loss": [
//	    {"link": "longhaul", "prob": 0.001, "start_us": 0, "end_us": 0}
//	  ],
//	  "feedback": [
//	    {"host": "*", "kinds": ["ack", "cnp"], "drop": 0.3,
//	     "delay_us": 100, "jitter_us": 50, "corrupt": 0.1,
//	     "modes": ["truncate", "stale_ts", "garbage"],
//	     "start_us": 5000, "end_us": 10000}
//	  ],
//	  "nodes": [
//	    {"at_us": 12000, "node": "host1", "action": "crash"},
//	    {"at_us": 18000, "node": "host1", "action": "restart"},
//	    {"at_us": 24000, "node": "dci0", "action": "fail"},
//	    {"at_us": 30000, "node": "dci0", "action": "recover"}
//	  ]
//	}
//
// Link names are resolved by the topology (topo.Network.linkByName):
// "longhaul", "host<i>", "leaf<i>:<p>", "spine<i>:<p>", "dci<i>:<p>".
// Feedback rules select hosts ("*" or "host<i>"); empty "kinds"/"modes"
// means all. Node names resolve whole devices ("host<i>", "leaf<i>",
// "spine<i>", "dci<i>"); crash/restart apply to hosts, fail/recover to
// switches.

// ReadPlan parses a JSON fault plan, rejecting unknown fields, and validates it.
func ReadPlan(r io.Reader) (*Plan, error) {
	p := &Plan{}
	if err := decodeStrict(r, p); err != nil {
		return nil, fmt.Errorf("fault: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// WritePlan emits the plan in the JSON schema ReadPlan accepts.
func WritePlan(w io.Writer, p *Plan) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// UnmarshalJSON decodes one event with the action preset out of range, so an
// absent or null "action" fails Validate instead of reading as the zero
// value, LinkDown. A custom unmarshaler does not inherit the outer decoder's
// DisallowUnknownFields, hence decodeStrict.
func (e *Event) UnmarshalJSON(b []byte) error {
	type plain Event // same fields, no methods: decoding it does not recurse
	v := plain(*e)
	v.Action = numActions
	err := decodeStrict(bytes.NewReader(b), &v)
	*e = Event(v)
	return err
}

// UnmarshalJSON is Event.UnmarshalJSON for node events: no action, no HostCrash.
func (e *NodeEvent) UnmarshalJSON(b []byte) error {
	type plain NodeEvent
	v := plain(*e)
	v.Action = numNodeActions
	err := decodeStrict(bytes.NewReader(b), &v)
	*e = NodeEvent(v)
	return err
}

// indexOf returns the index of name (exact case) in names, or len(names) —
// the out-of-range value Validate rejects — and an error.
func indexOf(what string, names []string, name string) (uint8, error) {
	for i, n := range names {
		if n == name {
			return uint8(i), nil
		}
	}
	return uint8(len(names)), fmt.Errorf("fault: unknown %s %q (want %s)", what, name, strings.Join(names, "|"))
}

// MarshalText / UnmarshalText name the two action enums in JSON.
func (a Action) MarshalText() ([]byte, error) { return []byte(a.String()), nil }
func (a *Action) UnmarshalText(b []byte) error {
	i, err := indexOf("action", actionNames[:], string(b))
	*a = Action(i)
	return err
}
func (a NodeAction) MarshalText() ([]byte, error) { return []byte(a.String()), nil }
func (a *NodeAction) UnmarshalText(b []byte) error {
	i, err := indexOf("node action", nodeActionNames[:], string(b))
	*a = NodeAction(i)
	return err
}

// bitNames lists the names of the set bits, in bit order.
func bitNames(names []string, bits uint8) []string {
	var list []string
	for i, n := range names {
		if bits&(1<<i) != 0 {
			list = append(list, n)
		}
	}
	return list
}

// unmarshalBits reads a name list into a bit set; null and [] are the zero set.
func unmarshalBits(what string, names []string, b []byte) (uint8, error) {
	var list []string
	if err := json.Unmarshal(b, &list); err != nil {
		return 0, err
	}
	var bits uint8
	for _, name := range list {
		i, err := indexOf(what, names, name)
		if err != nil {
			return 0, err
		}
		bits |= 1 << i
	}
	return bits, nil
}

// MarshalJSON / UnmarshalJSON carry the two feedback bit sets as name lists.
// (The zero set means "all" and is never marshalled: the fields are omitempty.)
func (k FBKind) MarshalJSON() ([]byte, error) { return json.Marshal(bitNames(fbKindNames, uint8(k))) }
func (k *FBKind) UnmarshalJSON(b []byte) error {
	bits, err := unmarshalBits("kind", fbKindNames, b)
	*k = FBKind(bits)
	return err
}
func (m CorruptMode) MarshalJSON() ([]byte, error) {
	return json.Marshal(bitNames(fbModeNames, uint8(m)))
}
func (m *CorruptMode) UnmarshalJSON(b []byte) error {
	bits, err := unmarshalBits("corrupt mode", fbModeNames, b)
	*m = CorruptMode(bits)
	return err
}
