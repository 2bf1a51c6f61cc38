package scenario

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// parityProbes are the documents whose ReadPlan verdict — and, for accepted
// ones, exact writePlan bytes — testdata/codec_parity.golden pins. The golden
// was captured from the hand-written json* mirror codec the tagged structs
// replaced, so it pins the schema, not one implementation of it.
// The four canonical plans ride along as written by writePlan.
var parityProbes = []struct{ name, doc string }{
	{"empty-object", `{}`},
	{"null-document", `null`},
	{"not-an-object", `[]`},
	{"trailing-data", `{"tenants":[{"name":"t","workload":"hadoop","duration_us":1}]} {"seed":4}`},
	{"schema-example", examplePlan},
	{"minimal-collective", `{"collectives":[{"name":"c","workers":2,"tensor_bytes":1,"phases":1}]}`},
	{"minimal-incast", `{"incasts":[{"name":"i","dst":0,"fan_in":1,"bytes":1,"waves":1}]}`},
	{"minimal-shuffle", `{"shuffles":[{"name":"s","workers":2,"bytes":1}]}`},
	{"minimal-tenant", `{"tenants":[{"name":"t","workload":"websearch","duration_us":1}]}`},

	// Times: float µs on the picosecond grid, domain-checked before conversion.
	{"poll-null", `{"poll_us":null,"shuffles":[{"name":"s","workers":2,"bytes":1}]}`},
	{"poll-string", `{"poll_us":"100","shuffles":[{"name":"s","workers":2,"bytes":1}]}`},
	{"poll-negative", `{"poll_us":-1,"shuffles":[{"name":"s","workers":2,"bytes":1}]}`},
	{"poll-negative-zero", `{"poll_us":-0,"shuffles":[{"name":"s","workers":2,"bytes":1}]}`},
	{"poll-out-of-range", `{"poll_us":9.3e18,"shuffles":[{"name":"s","workers":2,"bytes":1}]}`},
	{"poll-float-overflow", `{"poll_us":1e999,"shuffles":[{"name":"s","workers":2,"bytes":1}]}`},
	{"poll-rim", `{"poll_us":9.2e12,"shuffles":[{"name":"s","workers":2,"bytes":1}]}`},
	{"poll-one-picosecond", `{"poll_us":1e-6,"shuffles":[{"name":"s","workers":2,"bytes":1}]}`},
	{"poll-below-grid", `{"poll_us":4e-7,"shuffles":[{"name":"s","workers":2,"bytes":1}]}`},
	{"time-rounds-to-grid", `{"collectives":[{"name":"c","workers":2,"tensor_bytes":1,"phases":2,"start_us":0.0000004,"gap_us":5.0000005}]}`},
	{"time-fraction", `{"incasts":[{"name":"i","dst":1,"fan_in":2,"bytes":9,"waves":3,"start_us":1234.567891,"interval_us":1e3}]}`},
	{"time-shuffle-negative", `{"shuffles":[{"name":"s","workers":2,"bytes":1,"stagger_us":-1}]}`},
	{"time-collective-huge", `{"collectives":[{"name":"c","workers":2,"tensor_bytes":1,"phases":2,"gap_us":9.3e18}]}`},
	{"time-tenant-string", `{"tenants":[{"name":"t","workload":"websearch","start_us":"0","duration_us":1}]}`},
	{"time-tenant-duration-null", `{"tenants":[{"name":"t","workload":"websearch","duration_us":null}]}`},
	{"time-tenant-duration-absent", `{"tenants":[{"name":"t","workload":"websearch"}]}`},

	// Placement lists.
	{"hosts-empty", `{"shuffles":[{"name":"s","workers":2,"hosts":[],"bytes":1}]}`},
	{"hosts-null", `{"shuffles":[{"name":"s","workers":2,"hosts":null,"bytes":1}]}`},
	{"hosts-explicit", `{"collectives":[{"name":"c","hosts":[0,4,2,6],"tensor_bytes":8,"phases":1}]}`},
	{"hosts-duplicate", `{"collectives":[{"name":"c","hosts":[0,1,1],"tensor_bytes":8,"phases":1}]}`},
	{"hosts-contradict-workers", `{"collectives":[{"name":"c","workers":4,"hosts":[0,1],"tensor_bytes":1,"phases":1}]}`},
	{"hosts-float", `{"shuffles":[{"name":"s","hosts":[0,1.5],"bytes":1}]}`},
	{"hosts-set-twice", `{"shuffles":[{"name":"s","hosts":[0,1,2],"hosts":[5,6],"bytes":1}]}`},

	// A scenario is traffic only: the retired long-haul "profile" key is an
	// unknown field, so an old plan that carries one fails loudly.
	{"profile-retired", `{"tenants":[{"name":"t","workload":"hadoop","duration_us":1}],"profile":{"longhaul_us":7}}`},

	// Keys: encoding/json folds case and lets the last duplicate win.
	{"keys-case-folded", `{"SEED":3,"Name":"n","POLL_US":7,"Tenants":[{"NAME":"t","WorkLoad":"hadoop","Duration_US":1}]}`},
	{"keys-duplicate-scalar", `{"seed":1,"seed":2,"name":"a","name":"b","shuffles":[{"name":"s","workers":2,"workers":3,"bytes":1}]}`},
	{"keys-duplicate-list", `{"tenants":[{"name":"a","workload":"hadoop","intra_load":0.5,"duration_us":1}],"tenants":[{"name":"b","workload":"websearch","duration_us":2},{"name":"c","workload":"hadoop","duration_us":3}]}`},
	{"unknown-field-top", `{"bogus":1}`},
	{"unknown-field-collective", `{"collectives":[{"name":"c","workers":2,"tensor_bytes":1,"phases":1,"bytes":1}]}`},
	{"unknown-field-incast", `{"incasts":[{"name":"i","dst":0,"fan_in":1,"bytes":1,"waves":1,"workers":2}]}`},
	{"unknown-field-shuffle", `{"shuffles":[{"name":"s","workers":2,"bytes":1,"phases":1}]}`},
	{"unknown-field-tenant", `{"tenants":[{"name":"t","workload":"websearch","duration_us":1,"load":0.5}]}`},

	// Values Validate judges, and strings the encoder must escape.
	{"cross-true", `{"incasts":[{"name":"i","dst":0,"fan_in":1,"bytes":1,"waves":1,"cross":true}]}`},
	{"cross-false", `{"incasts":[{"name":"i","dst":0,"fan_in":1,"bytes":1,"waves":1,"cross":false}]}`},
	{"cross-string", `{"incasts":[{"name":"i","dst":0,"fan_in":1,"bytes":1,"waves":1,"cross":"true"}]}`},
	{"cross-null", `{"incasts":[{"name":"i","dst":0,"fan_in":1,"bytes":1,"waves":1,"cross":null}]}`},
	{"bytes-float", `{"shuffles":[{"name":"s","workers":2,"bytes":1.5}]}`},
	{"bytes-exponent", `{"shuffles":[{"name":"s","workers":2,"bytes":1e3}]}`},
	{"bytes-overflow", `{"shuffles":[{"name":"s","workers":2,"bytes":9223372036854775808}]}`},
	{"load-negative", `{"tenants":[{"name":"t","workload":"websearch","intra_load":-1,"duration_us":1}]}`},
	{"load-above-one", `{"tenants":[{"name":"t","workload":"websearch","intra_load":0.25,"cross_load":2.5,"duration_us":1}]}`},
	{"workload-unknown", `{"tenants":[{"name":"t","workload":"nope","duration_us":1}]}`},
	{"name-duplicate", `{"shuffles":[{"name":"x","workers":2,"bytes":1}],"tenants":[{"name":"x","workload":"hadoop","duration_us":1}]}`},
	{"name-empty", `{"shuffles":[{"workers":2,"bytes":1}]}`},
	{"name-html-escaped", `{"name":"a<b>&c","shuffles":[{"name":"café\u2028","workers":2,"bytes":1}]}`},
	{"component-null-element", `{"collectives":[null]}`},
	{"multi-phase-zero-gap", `{"collectives":[{"name":"c","workers":2,"tensor_bytes":1,"phases":2}]}`},
}

// renderParity runs every probe through ReadPlan and, when accepted,
// writePlan; then writes each canonical plan and re-reads its own output.
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
		if err := writePlan(&b, p); err != nil {
			t.Fatalf("%s: writePlan: %v", pr.name, err)
		}
	}
	for _, kind := range Kinds() {
		p, err := CanonicalPlan(kind, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("=== canonical-" + kind + "\n")
		var doc bytes.Buffer
		if err := writePlan(&doc, p); err != nil {
			t.Fatalf("%s: writePlan: %v", kind, err)
		}
		b.Write(doc.Bytes())
		if _, err := ReadPlan(&doc); err != nil {
			t.Errorf("canonical %s rejected as written: %v", kind, err)
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
