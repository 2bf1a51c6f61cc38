package topo

import (
	"fmt"
	"strings"
	"testing"

	"mlcc/internal/audit"
	"mlcc/internal/guard"
	"mlcc/internal/link"
)

// TestNamesAreOneVocabulary pins that the device table is the only source of
// names: every link name the audit pass can register resolves through
// LinkByName to the same cable, every guard node name resolves through
// NodeHooksByName to the same device, NodeName round-trips every device id,
// FaultSurface names every cable once — exactly the audit's link set — and
// every device, and malformed names are rejected with an error, never a
// panic.
func TestNamesAreOneVocabulary(t *testing.T) {
	builds := []struct {
		name  string
		build func(Params) *Network
		shape func(*Params)
		links []string // spot checks that the vocabulary itself did not drift
	}{
		{"twodc", TwoDC, nil, []string{"host0", "host31", "leaf0:4", "spine3:4", "dci0:0", "dci1:2", "longhaul"}},
		{"dumbbell", Dumbbell, nil, []string{"host0", "host3", "leaf1:2", "dci0:0", "dci0:1", "longhaul"}},
		{"fabric1x3", TwoDC, func(p *Params) { p.SpinesPerDC, p.LeavesPerDC = 1, 3 },
			[]string{"host0", "host23", "leaf5:4", "spine1:3", "dci1:0", "longhaul"}},
		{"fabric0x2", TwoDC, func(p *Params) { p.SpinesPerDC, p.LeavesPerDC = 0, 2 },
			[]string{"host0", "host15", "leaf3:4", "dci0:1", "dci1:0", "longhaul"}},
	}
	for _, b := range builds {
		for _, shards := range []int{1, 2} {
			b, shards := b, shards
			t.Run(fmt.Sprintf("%s/shards%d", b.name, shards), func(t *testing.T) {
				p := testParams(AlgMLCC)
				if b.shape != nil {
					b.shape(&p)
				}
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
					// The partition column: the row, its pool and every
					// port run on the row's shard.
					eng, pool := n.Engines[d.shard], n.Pools[d.shard]
					if d.host != nil && (d.host.Eng != eng || d.host.Pool != pool) ||
						d.sw != nil && (d.sw.Eng != eng || d.sw.Pool != pool) {
						t.Errorf("%s does not run on shard %d's engine and pool", d.name, d.shard)
					}
					for pi, port := range d.ports {
						if port.Eng != eng || port.Pool != pool {
							t.Errorf("%s port %d does not run on shard %d's engine and pool", d.name, pi, d.shard)
						}
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
				links, nodes := n.FaultSurface()
				type cable struct{ end, listed string }
				var all []*cable
				cables := map[*link.Port]*cable{} // both ends of a cable share its entry
				for i := range n.devs {
					d := &n.devs[i]
					for pi, port := range d.ports {
						if peer := port.Peer(); peer != nil && cables[peer] == nil {
							c := &cable{end: fmt.Sprintf("%s port %d", d.name, pi)}
							cables[port], cables[peer] = c, c
							all = append(all, c)
						}
					}
				}
				for _, name := range links {
					l, err := n.LinkByName(name)
					if err != nil {
						t.Errorf("FaultSurface link %q: %v", name, err)
						continue
					}
					switch c := cables[l.A]; {
					case c == nil:
						t.Errorf("FaultSurface link %q is no cable of the device table", name)
					case c.listed != "":
						t.Errorf("FaultSurface names one cable twice: %q and %q", c.listed, name)
					default:
						c.listed = name
					}
				}
				for _, c := range all {
					if c.listed == "" {
						t.Errorf("FaultSurface misses the cable at %s", c.end)
					}
				}
				if sum := n.Audit().Summary(); !strings.HasSuffix(sum, fmt.Sprintf(" links=%d", len(links))) {
					t.Errorf("FaultSurface lists %d links, the audit registered another count: %s", len(links), sum)
				}
				if len(nodes) != len(n.devs) {
					t.Errorf("FaultSurface lists %d nodes, want one per device (%d)", len(nodes), len(n.devs))
				}
				for _, name := range nodes {
					if _, err := n.NodeHooksByName(name); err != nil {
						t.Errorf("FaultSurface node %q: %v", name, err)
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
