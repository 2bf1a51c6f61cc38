// Package fault injects deterministic failures into a built network: admin
// link down/up (flaps), runtime degradation (rate reduction, extra delay,
// jitter) and Bernoulli packet loss on designated links.
//
// Faults come from a scripted Plan of absolute-time events plus loss rules.
// Every random process draws from its own seeded PRNG stream — one per loss
// rule and one per jittered port direction, seeded from the plan seed and a
// stable hash of the link name — so a run with a fixed simulation seed and a
// fixed plan is bit-reproducible, and an empty plan leaves the simulation
// byte-identical to a build with no fault layer at all (the digest tests in
// internal/exp enforce both properties).
//
// Only data frames are subject to Bernoulli corruption: ACKs, CNPs, INT
// reflections and PFC frames are assumed FEC-protected. An admin-down link,
// by contrast, destroys everything on and entering the wire — that is a cut
// fiber, not a noisy one. See DESIGN.md, "Fault model".
package fault

import (
	"fmt"
	"math"
	"strings"

	"mlcc/internal/sim"
)

// Action is the kind of one scripted fault event.
type Action uint8

// Actions.
const (
	LinkDown Action = iota // admin down: flush the wire, discard offered frames
	LinkUp                 // admin up: resume pulling from sources
	Degrade                // reduce the line rate and/or add delay+jitter
	Restore                // undo Degrade: nominal rate, no extra delay
	numActions
)

// actionNames is the JSON plan vocabulary, indexed by Action.
var actionNames = [numActions]string{"down", "up", "degrade", "restore"}

// String names the action using the JSON plan vocabulary.
func (a Action) String() string {
	if a < numActions {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Event is one scripted fault at an absolute simulation time.
type Event struct {
	At     sim.Time `json:"at_us"`
	Link   string   `json:"link"` // symbolic link name, resolved by the topology
	Action Action   `json:"action"`

	// Degrade parameters (ignored for other actions). RateFactor is the
	// fraction of the nominal line rate kept, in (0, 1]; zero means "rate
	// unchanged" so delay-only degradations read naturally.
	RateFactor float64  `json:"rate_factor,omitempty"`
	ExtraDelay sim.Time `json:"extra_delay_us,omitempty"` // added propagation delay per frame
	Jitter     sim.Time `json:"jitter_us,omitempty"`      // max uniform random extra delay per frame
}

// LossRule drops each data frame entering the named link with probability
// Prob while the rule's window [Start, End) is open. End 0 means "until the
// end of the run". The dropper only draws randomness inside the window, so
// a rule that never activates consumes none.
type LossRule struct {
	Link  string   `json:"link"`
	Prob  float64  `json:"prob"` // [0, 1)
	Start sim.Time `json:"start_us,omitempty"`
	End   sim.Time `json:"end_us,omitempty"`
}

// FBKind is a bit set selecting which feedback frame kinds a FeedbackRule
// applies to. Zero means all kinds.
type FBKind uint8

// Feedback frame kinds.
const (
	FBAck       FBKind = 1 << iota // cumulative ACKs (and their INT stacks)
	FBCNP                          // DCQCN congestion notifications
	FBSwitchINT                    // MLCC near-source Switch-INT reflections
	fbAllKinds  = FBAck | FBCNP | FBSwitchINT
)

// fbKindNames is the JSON plan vocabulary: name i is bit 1<<i.
var fbKindNames = []string{"ack", "cnp", "sint"}

// String names the kind set using the JSON plan vocabulary.
func (k FBKind) String() string {
	if k == 0 || k == fbAllKinds {
		return "all"
	}
	return strings.Join(bitNames(fbKindNames, uint8(k)), "+")
}

// CorruptMode is a bit set selecting how INT telemetry is corrupted. Zero
// means all modes.
type CorruptMode uint8

// INT corruption modes.
const (
	corruptTruncate CorruptMode = 1 << iota // drop records off the stack tail
	corruptStaleTS                          // regress one hop's timestamp
	corruptGarbage                          // garbage QLen/TxBytes/Band on one hop
	corruptAllModes = corruptTruncate | corruptStaleTS | corruptGarbage
)

// fbModeNames is the JSON plan vocabulary: name i is bit 1<<i.
var fbModeNames = []string{"truncate", "stale_ts", "garbage"}

// FeedbackRule impairs the reverse path: feedback frames (ACKs, CNPs,
// Switch-INT reflections) arriving at the matched sending hosts are dropped,
// delayed (with bounded reordering via jitter) or have their INT telemetry
// corrupted, each with independent probability, while the rule's window
// [Start, End) is open. Faults apply at the host's feedback ingress — after
// the NIC port counted the frame as received — so link-level conservation
// books are untouched and the drop is attributed to the feedback plane.
//
// Unlike data-path LossRule, Drop may be exactly 1: a total feedback
// blackout (the watchdog experiment) is a meaningful configuration, whereas
// a data link at 100% loss is just a down link.
type FeedbackRule struct {
	Host    string      `json:"host,omitempty"`      // "" or "*" = every host; "host<i>" = one sender
	Kinds   FBKind      `json:"kinds,omitempty"`     // frame kinds affected; 0 = all
	Drop    float64     `json:"drop,omitempty"`      // P(destroy frame), [0, 1]
	Delay   sim.Time    `json:"delay_us,omitempty"`  // fixed extra delivery delay per frame
	Jitter  sim.Time    `json:"jitter_us,omitempty"` // max uniform random extra delay (bounded reordering)
	Corrupt float64     `json:"corrupt,omitempty"`   // P(corrupt the frame's INT stack), [0, 1]
	Modes   CorruptMode `json:"modes,omitempty"`     // corruption modes drawn from; 0 = all
	Start   sim.Time    `json:"start_us,omitempty"`
	End     sim.Time    `json:"end_us,omitempty"` // 0 = until the end of the run
}

// vacuous reports whether the rule can never alter a frame.
func (r *FeedbackRule) vacuous() bool {
	return r.Drop <= 0 && r.Corrupt <= 0 && r.Delay <= 0 && r.Jitter <= 0
}

// NodeAction is the kind of one scripted node-level fault event.
type NodeAction uint8

// Node actions. Crash/Restart apply to hosts; Fail/Recover to switches —
// the resolver rejects a mismatched pairing at apply time, the same place an
// unresolvable name surfaces.
const (
	HostCrash     NodeAction = iota // NIC link cut, go-back-N state torn down, flows park
	HostRestart                     // NIC link restored, parked flows rebuilt and resumed
	SwitchFail                      // every attached port cut, queued frames destroyed, PFC folded
	SwitchRecover                   // every attached port restored
	numNodeActions
)

// nodeActionNames is the JSON plan vocabulary, indexed by NodeAction.
var nodeActionNames = [numNodeActions]string{"crash", "restart", "fail", "recover"}

// String names the node action using the JSON plan vocabulary.
func (a NodeAction) String() string {
	if a < numNodeActions {
		return nodeActionNames[a]
	}
	return fmt.Sprintf("node-action(%d)", uint8(a))
}

// NodeEvent is one scripted node-level fault at an absolute simulation time.
// Node names use the topology vocabulary: "host<i>", "leaf<i>", "spine<i>",
// "dci<i>".
type NodeEvent struct {
	At     sim.Time   `json:"at_us"`
	Node   string     `json:"node"`
	Action NodeAction `json:"action"`
}

// Plan is a complete fault schedule. The zero value (and nil) is the empty
// plan: applying it installs nothing and perturbs nothing.
type Plan struct {
	// Seed decorrelates the plan's PRNG streams from the simulation seed;
	// streams are further decorrelated per link name and per rule index.
	Seed     int64          `json:"seed,omitempty"`
	Events   []Event        `json:"events,omitempty"`
	Loss     []LossRule     `json:"loss,omitempty"`
	Feedback []FeedbackRule `json:"feedback,omitempty"`
	Nodes    []NodeEvent    `json:"nodes,omitempty"`
}

// empty reports whether the plan (possibly nil) schedules nothing.
func (p *Plan) empty() bool {
	return p == nil || (len(p.Events) == 0 && len(p.Loss) == 0 &&
		len(p.Feedback) == 0 && len(p.Nodes) == 0)
}

// HasFeedback reports whether the plan (possibly nil) carries feedback-plane
// rules.
func (p *Plan) HasFeedback() bool {
	return p != nil && len(p.Feedback) > 0
}

// Validate checks the plan's parameters (not link names, which only the
// topology can resolve).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, ev := range p.Events {
		if ev.Link == "" {
			return fmt.Errorf("fault: event %d: empty link name", i)
		}
		if ev.At < 0 {
			return fmt.Errorf("fault: event %d (%s %s): negative time %v", i, ev.Link, ev.Action, ev.At)
		}
		if ev.Action >= numActions {
			return fmt.Errorf("fault: event %d (%s): missing or unknown action", i, ev.Link)
		}
		if ev.Action == Degrade {
			// NaN slips through ordering comparisons (always false), so it
			// must be rejected explicitly or it reaches the link layer.
			if math.IsNaN(ev.RateFactor) || ev.RateFactor < 0 || ev.RateFactor > 1 {
				return fmt.Errorf("fault: event %d (%s): rate factor %v outside (0, 1]", i, ev.Link, ev.RateFactor)
			}
			if ev.ExtraDelay < 0 || ev.Jitter < 0 {
				return fmt.Errorf("fault: event %d (%s): negative delay/jitter", i, ev.Link)
			}
		}
	}
	for i, r := range p.Loss {
		if r.Link == "" {
			return fmt.Errorf("fault: loss rule %d: empty link name", i)
		}
		if math.IsNaN(r.Prob) || r.Prob < 0 || r.Prob >= 1 {
			return fmt.Errorf("fault: loss rule %d (%s): probability %v outside [0, 1)", i, r.Link, r.Prob)
		}
		if r.Start < 0 || (r.End != 0 && r.End <= r.Start) {
			return fmt.Errorf("fault: loss rule %d (%s): bad window [%v, %v)", i, r.Link, r.Start, r.End)
		}
	}
	for i, r := range p.Feedback {
		if err := checkHostName(r.Host); err != nil {
			return fmt.Errorf("fault: feedback rule %d: %w", i, err)
		}
		if math.IsNaN(r.Drop) || r.Drop < 0 || r.Drop > 1 {
			return fmt.Errorf("fault: feedback rule %d (%s): drop probability %v outside [0, 1]", i, r.Host, r.Drop)
		}
		if math.IsNaN(r.Corrupt) || r.Corrupt < 0 || r.Corrupt > 1 {
			return fmt.Errorf("fault: feedback rule %d (%s): corrupt probability %v outside [0, 1]", i, r.Host, r.Corrupt)
		}
		if r.Delay < 0 || r.Jitter < 0 {
			return fmt.Errorf("fault: feedback rule %d (%s): negative delay/jitter", i, r.Host)
		}
		if r.Kinds&^fbAllKinds != 0 {
			return fmt.Errorf("fault: feedback rule %d (%s): unknown kind bits %#x", i, r.Host, r.Kinds&^fbAllKinds)
		}
		if r.Modes&^corruptAllModes != 0 {
			return fmt.Errorf("fault: feedback rule %d (%s): unknown corrupt-mode bits %#x", i, r.Host, r.Modes&^corruptAllModes)
		}
		if r.Start < 0 || (r.End != 0 && r.End <= r.Start) {
			return fmt.Errorf("fault: feedback rule %d (%s): bad window [%v, %v)", i, r.Host, r.Start, r.End)
		}
	}
	for i, ev := range p.Nodes {
		if ev.Node == "" {
			return fmt.Errorf("fault: node event %d: empty node name", i)
		}
		if ev.At < 0 {
			return fmt.Errorf("fault: node event %d (%s %s): negative time %v", i, ev.Node, ev.Action, ev.At)
		}
		if ev.Action >= numNodeActions {
			return fmt.Errorf("fault: node event %d (%s): missing or unknown action", i, ev.Node)
		}
	}
	return nil
}

// checkHostName validates a feedback rule's host selector: "", "*" (every
// host) or "host<i>".
func checkHostName(name string) error {
	if name == "" || name == "*" {
		return nil
	}
	rest, ok := strings.CutPrefix(name, "host")
	if !ok || rest == "" {
		return fmt.Errorf("bad host %q (want \"\", \"*\" or \"host<i>\")", name)
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return fmt.Errorf("bad host %q (want \"\", \"*\" or \"host<i>\")", name)
		}
	}
	return nil
}

// stableHash is FNV-1a over s: a process-independent way to give each link
// its own PRNG stream regardless of resolution order.
func stableHash(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return int64(h)
}
