package sim

import (
	"encoding/json"
	"testing"
)

func TestTimeJSONRoundTrip(t *testing.T) {
	for _, c := range []struct {
		t    Time
		json string
	}{
		{0, `0`},
		{Picosecond, `0.000001`},
		{80 * Nanosecond, `0.08`},
		{1500 * Microsecond, `1500`},
		{3*Millisecond + 7*Picosecond, `3000.000007`},
		{100 * Millisecond, `100000`},
		{9200000 * Second, `9200000000000`}, // the rim: 9.2e12 µs of the ~9.22e12 an int64 holds
	} {
		b, err := json.Marshal(c.t)
		if err != nil || string(b) != c.json {
			t.Errorf("Marshal(%v) = %s, %v; want %s", c.t, b, err, c.json)
		}
		var back Time
		if err := json.Unmarshal(b, &back); err != nil || back != c.t {
			t.Errorf("Unmarshal(%s) = %v, %v; want %v", b, back, err, c.t)
		}
	}
}

func TestTimeJSONDomain(t *testing.T) {
	for _, bad := range []string{`-1`, `9.3e18`, `9223372036854.775807`, `1e999`, `"3"`, `true`, `[1]`} {
		got := Time(42)
		if err := json.Unmarshal([]byte(bad), &got); err == nil {
			t.Errorf("Unmarshal(%s) accepted as %v", bad, got)
		}
	}
	// Rounding is to the nearest picosecond; -0 is zero.
	for in, want := range map[string]Time{`4e-7`: 0, `6e-7`: Picosecond, `2.0000005`: 2*Microsecond + Picosecond, `-0`: 0, `9.2e12`: 9200000 * Second} {
		got := Time(42)
		if err := json.Unmarshal([]byte(in), &got); err != nil || got != want {
			t.Errorf("Unmarshal(%s) = %v, %v; want %v", in, got, err, want)
		}
	}
}

// TestTimeJSONInStruct: null leaves the field alone (as it does a float64),
// and omitempty drops a zero Time exactly as it dropped the zero float the
// plan schemas used to carry.
func TestTimeJSONInStruct(t *testing.T) {
	type doc struct {
		At  Time `json:"at_us"`
		Gap Time `json:"gap_us,omitempty"`
	}
	d := doc{At: 5 * Microsecond, Gap: 7 * Microsecond}
	if err := json.Unmarshal([]byte(`{"at_us":null,"gap_us":null}`), &d); err != nil || d.At != 5*Microsecond || d.Gap != 7*Microsecond {
		t.Errorf("null overwrote: %+v, %v", d, err)
	}
	b, err := json.Marshal(doc{})
	if err != nil || string(b) != `{"at_us":0}` {
		t.Errorf("zero doc = %s, %v", b, err)
	}
}
