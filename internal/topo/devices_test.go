package topo

import (
	"fmt"
	"testing"

	"mlcc/internal/audit"
	"mlcc/internal/guard"
	"mlcc/internal/link"
)

// TestNamesAreOneVocabulary pins that the device table is the only source of
// names: every link name the audit pass can register resolves through
// LinkByName to the same cable, every guard node name resolves through
// NodeHooksByName to the same device, NodeName round-trips every device id,
// and malformed names are rejected with an error, never a panic.
func TestNamesAreOneVocabulary(t *testing.T) {
	builds := []struct {
		name  string
		build func(Params) *Network
		links []string // spot checks that the vocabulary itself did not drift
	}{
		{"twodc", TwoDC, []string{"host0", "host31", "leaf0:4", "spine3:4", "dci0:0", "dci1:2", "longhaul"}},
		{"dumbbell", Dumbbell, []string{"host0", "host3", "leaf1:2", "dci0:0", "dci0:1", "longhaul"}},
	}
	for _, b := range builds {
		for _, shards := range []int{1, 2} {
			b, shards := b, shards
			t.Run(fmt.Sprintf("%s/shards%d", b.name, shards), func(t *testing.T) {
				p := testParams(AlgMLCC)
				p.Shards = shards
				p.Audit = audit.New()
				p.Guard = &guard.Config{}
				n := b.build(p)
				if n.ShardCount() != shards {
					t.Fatalf("ShardCount = %d, want %d", n.ShardCount(), shards)
				}

				samePair := func(l [2]*link.Port, a, b *link.Port) bool {
					return (l[0] == a && l[1] == b) || (l[0] == b && l[1] == a)
				}
				for i := range n.devs {
					d := &n.devs[i]
					for pi, port := range d.ports {
						name := d.linkName(pi)
						l, err := n.LinkByName(name)
						if err != nil {
							t.Errorf("LinkByName(%q): %v", name, err)
							continue
						}
						if !samePair([2]*link.Port{l.A, l.B}, port, port.Peer()) {
							t.Errorf("LinkByName(%q) resolved to a different cable than %s port %d", name, d.name, pi)
						}
					}
					nh, err := n.NodeHooksByName(d.name)
					if err != nil {
						t.Errorf("NodeHooksByName(%q): %v", d.name, err)
					} else if nh.ID != int32(d.id) {
						t.Errorf("NodeHooksByName(%q).ID = %d, want %d", d.name, nh.ID, d.id)
					}
					if got := n.NodeName(int32(d.id)); got != d.name {
						t.Errorf("NodeName(%d) = %q, want %q", d.id, got, d.name)
					}
				}
				if got, want := len(n.Switches()), len(n.Leaves)+len(n.Spines)+len(n.DCIs); got != want {
					t.Errorf("Switches() lists %d switches, want %d", got, want)
				}
				for _, name := range b.links {
					if _, err := n.LinkByName(name); err != nil {
						t.Errorf("LinkByName(%q): %v", name, err)
					}
				}

				for _, bad := range []struct {
					name   string
					isNode bool // a valid device name, just not a link
				}{
					{"", false}, {"host-1", false}, {"host99", false}, {"host1:0", false},
					{"leaf0", true}, {"leaf0:99", false}, {"dci2:0", false},
					{"spine0x", false}, {"longhaul:0", false},
				} {
					if l, err := n.LinkByName(bad.name); err == nil {
						t.Errorf("LinkByName(%q) = %+v, want an error", bad.name, l)
					}
					if _, err := n.NodeHooksByName(bad.name); (err == nil) != bad.isNode {
						t.Errorf("NodeHooksByName(%q): err = %v, want error = %v", bad.name, err, !bad.isNode)
					}
				}
			})
		}
	}
}
