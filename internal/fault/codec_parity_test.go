package fault

import (
	"os"
	"strings"
	"testing"
)

// parityProbes are the documents whose ReadPlan verdict — and, for accepted
// ones, exact WritePlan bytes — testdata/codec_parity.golden pins. The golden
// was captured from the hand-written json* mirror codec the tagged structs
// replaced, so it pins the schema, not one implementation of it.
var parityProbes = []struct{ name, doc string }{
	{"empty-object", `{}`},
	{"null-document", `null`},
	{"not-an-object", `[]`},
	{"trailing-data", `{"seed":3} {"seed":4}`},
	{"schema-example", `{
	  "seed": 7,
	  "events": [
	    {"at_us": 8000, "link": "longhaul", "action": "down"},
	    {"at_us": 10000, "link": "longhaul", "action": "up"},
	    {"at_us": 20000, "link": "longhaul", "action": "degrade",
	     "rate_factor": 0.5, "extra_delay_us": 500, "jitter_us": 20},
	    {"at_us": 26000, "link": "longhaul", "action": "restore"}
	  ],
	  "loss": [
	    {"link": "longhaul", "prob": 0.001, "start_us": 0, "end_us": 0}
	  ],
	  "feedback": [
	    {"host": "*", "kinds": ["ack", "cnp"], "drop": 0.3,
	     "delay_us": 100, "jitter_us": 50, "corrupt": 0.1,
	     "modes": ["truncate", "stale_ts", "garbage"],
	     "start_us": 5000, "end_us": 10000}
	  ],
	  "nodes": [
	    {"at_us": 12000, "node": "host1", "action": "crash"},
	    {"at_us": 18000, "node": "host1", "action": "restart"},
	    {"at_us": 24000, "node": "dci0", "action": "fail"},
	    {"at_us": 30000, "node": "dci0", "action": "recover"}
	  ]
	}`},

	// Actions: absent, null and mis-cased names must never become the zero
	// enum value (LinkDown / HostCrash).
	{"action-absent", `{"events":[{"at_us":1,"link":"l"}]}`},
	{"action-null", `{"events":[{"at_us":1,"link":"l","action":null}]}`},
	{"action-miscased", `{"events":[{"at_us":1,"link":"l","action":"Down"}]}`},
	{"action-empty", `{"events":[{"at_us":1,"link":"l","action":""}]}`},
	{"action-number", `{"events":[{"at_us":1,"link":"l","action":0}]}`},
	{"action-node-vocabulary", `{"events":[{"at_us":1,"link":"l","action":"crash"}]}`},
	{"action-set-then-null", `{"events":[{"at_us":1,"link":"l","action":"up","action":null}]}`},
	{"event-null-element", `{"events":[null]}`},
	{"events-null", `{"events":null,"loss":[]}`},
	{"node-action-absent", `{"nodes":[{"at_us":1,"node":"host0"}]}`},
	{"node-action-null", `{"nodes":[{"at_us":1,"node":"host0","action":null}]}`},
	{"node-action-miscased", `{"nodes":[{"at_us":1,"node":"host0","action":"Crash"}]}`},
	{"node-action-link-vocabulary", `{"nodes":[{"at_us":1,"node":"host0","action":"down"}]}`},
	{"node-null-element", `{"nodes":[null]}`},
	{"node-empty-name", `{"nodes":[{"at_us":1,"node":"","action":"crash"}]}`},

	// Times: float µs on the picosecond grid, domain-checked before conversion.
	{"time-null", `{"events":[{"at_us":null,"link":"l","action":"down"}]}`},
	{"time-absent", `{"events":[{"link":"l","action":"down"}]}`},
	{"time-string", `{"events":[{"at_us":"3","link":"l","action":"down"}]}`},
	{"time-negative", `{"events":[{"at_us":-1,"link":"l","action":"down"}]}`},
	{"time-negative-zero", `{"events":[{"at_us":-0,"link":"l","action":"down"}]}`},
	{"time-out-of-range", `{"events":[{"at_us":9.3e18,"link":"l","action":"down"}]}`},
	{"time-float-overflow", `{"events":[{"at_us":1e999,"link":"l","action":"down"}]}`},
	{"time-rim", `{"events":[{"at_us":9.2e12,"link":"l","action":"down"}]}`},
	{"time-one-picosecond", `{"events":[{"at_us":1e-6,"link":"l","action":"down"}]}`},
	{"time-below-grid", `{"events":[{"at_us":4e-7,"link":"l","action":"down"}]}`},
	{"time-rounds-to-grid", `{"events":[{"at_us":2.0000005,"link":"l","action":"down"}]}`},
	{"time-fraction", `{"events":[{"at_us":1234.567891,"link":"l","action":"degrade","extra_delay_us":0.25,"jitter_us":1e3}]}`},
	{"time-nested-negative", `{"events":[{"at_us":1,"link":"l","action":"degrade","jitter_us":-2}]}`},
	{"time-loss-window-string", `{"loss":[{"link":"l","prob":0.1,"start_us":"0"}]}`},
	{"time-feedback-huge", `{"feedback":[{"drop":0.1,"end_us":1e19}]}`},
	{"time-node-negative", `{"nodes":[{"at_us":-3,"node":"host0","action":"crash"}]}`},

	// Feedback kind and corrupt-mode lists.
	{"kinds-empty", `{"feedback":[{"drop":0.5,"kinds":[]}]}`},
	{"kinds-null", `{"feedback":[{"drop":0.5,"kinds":null}]}`},
	{"kinds-duplicate", `{"feedback":[{"drop":0.5,"kinds":["ack","ack"]}]}`},
	{"kinds-unknown", `{"feedback":[{"drop":0.5,"kinds":["syn"]}]}`},
	{"kinds-miscased", `{"feedback":[{"drop":0.5,"kinds":["ACK"]}]}`},
	{"kinds-not-a-list", `{"feedback":[{"drop":0.5,"kinds":"ack"}]}`},
	{"kinds-number-element", `{"feedback":[{"drop":0.5,"kinds":[1]}]}`},
	{"kinds-reordered", `{"feedback":[{"drop":0.5,"kinds":["sint","ack"]}]}`},
	{"kinds-all", `{"feedback":[{"drop":0.5,"kinds":["ack","cnp","sint"]}]}`},
	{"kinds-set-then-null", `{"feedback":[{"drop":0.5,"kinds":["ack"],"kinds":null}]}`},
	{"kinds-set-twice", `{"feedback":[{"drop":0.5,"kinds":["ack"],"kinds":["cnp"]}]}`},
	{"modes-empty", `{"feedback":[{"corrupt":0.5,"modes":[]}]}`},
	{"modes-null", `{"feedback":[{"corrupt":0.5,"modes":null}]}`},
	{"modes-duplicate", `{"feedback":[{"corrupt":0.5,"modes":["garbage","garbage","truncate"]}]}`},
	{"modes-unknown", `{"feedback":[{"corrupt":0.5,"modes":["flip"]}]}`},
	{"modes-kind-vocabulary", `{"feedback":[{"corrupt":0.5,"modes":["ack"]}]}`},

	// Keys: encoding/json folds case and lets the last duplicate win.
	{"keys-case-folded", `{"SEED":3,"Events":[{"AT_US":1,"LINK":"l","Action":"down"}],"NODES":[{"At_Us":2,"NODE":"host0","ACTION":"crash"}]}`},
	{"keys-duplicate-scalar", `{"seed":1,"seed":2}`},
	{"keys-duplicate-in-event", `{"events":[{"at_us":1,"at_us":2,"link":"a","link":"b","action":"down","action":"up"}]}`},
	{"keys-duplicate-list", `{"events":[{"at_us":1,"link":"a","action":"degrade","rate_factor":0.5}],"events":[{"at_us":2,"link":"b","action":"degrade"},{"at_us":3,"link":"c","action":"restore"}]}`},
	{"keys-duplicate-list-shrinks", `{"loss":[{"link":"a","prob":0.1},{"link":"b","prob":0.2}],"loss":[{"link":"c","prob":0.3}]}`},
	{"unknown-field-top", `{"sed":1}`},
	{"unknown-field-event", `{"events":[{"at_us":1,"link":"l","action":"down","color":"red"}]}`},
	{"unknown-field-loss", `{"loss":[{"link":"l","prob":0.1,"at_us":1}]}`},
	{"unknown-field-feedback", `{"feedback":[{"drop":0.1,"link":"l"}]}`},
	{"unknown-field-node", `{"nodes":[{"at_us":1,"node":"host0","action":"crash","link":"l"}]}`},

	// Values Validate judges, and strings the encoder must escape.
	{"seed-max", `{"seed":9223372036854775807}`},
	{"seed-negative", `{"seed":-5}`},
	{"seed-float", `{"seed":1.5}`},
	{"seed-overflow", `{"seed":9223372036854775808}`},
	{"loss-prob-one", `{"loss":[{"link":"l","prob":1}]}`},
	{"loss-prob-string", `{"loss":[{"link":"l","prob":"NaN"}]}`},
	{"loss-window-inverted", `{"loss":[{"link":"l","prob":0.1,"start_us":5,"end_us":5}]}`},
	{"loss-empty-link", `{"loss":[{"prob":0.1}]}`},
	{"degrade-rate-only", `{"events":[{"at_us":0,"link":"l","action":"degrade","rate_factor":1}]}`},
	{"degrade-rate-above-one", `{"events":[{"at_us":0,"link":"l","action":"degrade","rate_factor":1.5}]}`},
	{"degrade-fields-on-down", `{"events":[{"at_us":0,"link":"l","action":"down","rate_factor":7,"jitter_us":3}]}`},
	{"feedback-blackout", `{"feedback":[{"host":"host0","drop":1}]}`},
	{"feedback-bad-host", `{"feedback":[{"host":"hostX","drop":0.5}]}`},
	{"feedback-vacuous", `{"feedback":[{}]}`},
	{"link-html-escaped", `{"events":[{"at_us":1,"link":"a<b>&c","action":"down"}]}`},
	{"link-unicode", `{"events":[{"at_us":1,"link":"café\u2028","action":"down"}]}`},
	{"node-pair", `{"nodes":[{"at_us":3000,"node":"host0","action":"crash"},{"at_us":6000,"node":"host0","action":"restart"}]}`},
}

// renderParity runs every probe through ReadPlan and, when accepted, WritePlan.
func renderParity(t *testing.T) string {
	var b strings.Builder
	for _, pr := range parityProbes {
		b.WriteString("=== " + pr.name + "\n")
		p, err := ReadPlan(strings.NewReader(pr.doc))
		if err != nil {
			b.WriteString("reject\n")
			continue
		}
		b.WriteString("accept\n")
		if err := WritePlan(&b, p); err != nil {
			t.Fatalf("%s: WritePlan: %v", pr.name, err)
		}
	}
	return b.String()
}

func TestCodecParity(t *testing.T) {
	want, err := os.ReadFile("testdata/codec_parity.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderParity(t)
	if got == string(want) {
		return
	}
	gs, ws := strings.Split(got, "=== "), strings.Split(string(want), "=== ")
	for i := 0; i < len(gs) && i < len(ws); i++ {
		if gs[i] != ws[i] {
			t.Errorf("probe drifted from testdata/codec_parity.golden:\n--- got\n%s--- want\n%s", gs[i], ws[i])
		}
	}
	if len(gs) != len(ws) {
		t.Errorf("%d probes rendered, golden holds %d", len(gs)-1, len(ws)-1)
	}
}

// TestReadPlanStricterThanMirror pins the two document classes the tagged
// codec judges differently from the mirror it replaced, both in the safe
// direction (accepted then, rejected now).
func TestReadPlanStricterThanMirror(t *testing.T) {
	for name, doc := range map[string]string{
		// A duplicated list key makes encoding/json decode the second list
		// over the first list's elements. The mirror held the action as a
		// string, so a later element without "action" silently inherited the
		// earlier one's; an element now has to name its own.
		"inherited action":      `{"events":[{"at_us":1,"link":"a","action":"up"}],"events":[{"at_us":2,"link":"b"}]}`,
		"inherited node action": `{"nodes":[{"at_us":1,"node":"host0","action":"restart"}],"nodes":[{"at_us":2,"node":"host1"}]}`,
		// 2^63 ps passed the mirror's µs-domain check and overflowed the
		// float→int64 conversion; on a field Validate only reads under
		// Degrade that was accepted as a negative jitter WritePlan then
		// emitted and ReadPlan refused. The bound is now on the ps product.
		"time at the int64 rim": `{"events":[{"at_us":0,"link":"l","action":"down","jitter_us":9223372036854.775807}]}`,
	} {
		if _, err := ReadPlan(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted %s", name, doc)
		}
	}
}
