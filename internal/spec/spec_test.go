package spec

import (
	"reflect"
	"strings"
	"testing"

	"mlcc/internal/sim"
)

// TestResolveRanges pins Resolve's verdict on the fields that arrive from
// outside through -spec: defaults fill zeros, out-of-range values are
// rejected, and an accepted config resolves to itself.
func TestResolveRanges(t *testing.T) {
	cases := []struct {
		name    string
		c       Config
		wantErr string
		check   func(r Config) bool
	}{
		{name: "two-DC defaults", check: func(r Config) bool {
			return r.SpinesPerDC == 2 && r.LeavesPerDC == 4 && r.HostsPerLeaf == 8 && r.HostRate == 25*sim.Gbps &&
				r.Theta == 18*sim.Millisecond && r.RTOMax == 100*sim.Millisecond && r.MaxRetrans == 16 && r.LongHaulDelay == 3*sim.Millisecond
		}},
		{name: "dumbbell defaults", c: Config{Dumbbell: true}, check: func(r Config) bool {
			return r.SpinesPerDC == 0 && r.LeavesPerDC == 1 && r.HostsPerLeaf == 2 && r.HostRate == 100*sim.Gbps
		}},
		{name: "ablation algorithm", c: Config{Algorithm: "mlcc-nodqm"}},
		{name: "unknown algorithm", c: Config{Algorithm: "reno"}, wantErr: "unknown algorithm"},
		{name: "negative leaves", c: Config{LeavesPerDC: -1}, wantErr: "negative shape"},
		{name: "too many spines", c: Config{SpinesPerDC: 51}, wantErr: "exceed 50"},
		{name: "dumbbell with spines", c: Config{Dumbbell: true, SpinesPerDC: 2}, wantErr: "dumbbell"},
		{name: "dumbbell with one host per DC", c: Config{Dumbbell: true, HostsPerLeaf: 1}, wantErr: "dumbbell"},
		{name: "negative host rate", c: Config{HostRate: -1}, wantErr: "negative host rate"},
		{name: "negative theta", c: Config{Theta: -sim.Millisecond}, wantErr: "negative host rate"},
		{name: "negative retransmission budget", c: Config{MaxRetrans: -1}, wantErr: "negative host rate"},
	}
	for _, tc := range cases {
		r, err := tc.c.Resolve()
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: Resolve error = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if tc.check != nil && !tc.check(r) {
			t.Errorf("%s: resolved to %+v", tc.name, r)
		}
		if again, err := r.Resolve(); err != nil || !reflect.DeepEqual(again, r) {
			t.Errorf("%s: Resolve is not idempotent: %+v, %v", tc.name, again, err)
		}
	}
}

// TestHostsMatchesBuild pins that Hosts, on an unresolved config, counts the
// hosts Build lays out.
func TestHostsMatchesBuild(t *testing.T) {
	for _, c := range []Config{{}, {LeavesPerDC: 2, HostsPerLeaf: 2}, {Dumbbell: true}, {Dumbbell: true, HostsPerLeaf: 8}} {
		b, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.Hosts(), b.Net.NumHosts(); got != want {
			t.Errorf("%+v: Hosts() = %d, build has %d", c, got, want)
		}
	}
}
