package topo

import (
	"fmt"
	"testing"

	"mlcc/internal/fabric"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// perHostRoutes is the reference for the rack table: the per-host route
// fill TwoDC used before it routed by rack — one AddRoute per (switch, host,
// candidate), in the same candidate order — on standalone switches with the
// real ones' ids, salts (TwoDC salts switch i of a tier with 100·tier+i) and
// port counts, so ECMP hashes alike.
func perHostRoutes(n *Network) map[*fabric.Switch]*fabric.Switch {
	p := n.P
	ref := map[*fabric.Switch]*fabric.Switch{}
	sws := n.Switches()
	for t, tier := range [][]*fabric.Switch{n.Leaves, n.Spines, sws[len(n.Leaves)+len(n.Spines):]} {
		for i, sw := range tier {
			r := fabric.New(sim.NewEngine(), pkt.NewPool(), fabric.Config{ID: sw.ID(), Salt: int32(100*(t+1) + i)})
			for range sw.NumPorts() {
				r.AddPort(sim.Gbps, 0)
			}
			ref[sw] = r
		}
	}
	lhPort := p.SpinesPerDC
	if lhPort == 0 {
		lhPort = p.LeavesPerDC
	}
	for h := 0; h < n.NumHosts(); h++ {
		id := nodeID(h)
		hd := n.DC(h)
		localRack := n.Rack(h) % p.LeavesPerDC
		for d := 0; d < 2; d++ {
			for li := 0; li < p.LeavesPerDC; li++ {
				leaf := ref[n.Leaves[d*p.LeavesPerDC+li]]
				if d == hd && li == localRack {
					leaf.AddRoute(id, h%p.HostsPerLeaf)
					continue
				}
				for u := 0; u < max(p.SpinesPerDC, 1); u++ {
					leaf.AddRoute(id, p.HostsPerLeaf+u)
				}
			}
			for si := 0; si < p.SpinesPerDC; si++ {
				spine := ref[n.Spines[d*p.SpinesPerDC+si]]
				if d == hd {
					spine.AddRoute(id, localRack)
				} else {
					spine.AddRoute(id, p.LeavesPerDC)
				}
			}
			dciSw := ref[n.DCIs[d].Switch]
			switch {
			case d != hd:
				dciSw.AddRoute(id, lhPort)
			case p.SpinesPerDC == 0:
				dciSw.AddRoute(id, localRack)
			default:
				for si := 0; si < p.SpinesPerDC; si++ {
					dciSw.AddRoute(id, si)
				}
			}
		}
	}
	return ref
}

// TestRackRoutesMatchPerHostRoutes pins that routing by rack changed no
// route: on each fabric shape every switch sends every destination host out
// of the port the per-host table picks, for 64 flow ids.
func TestRackRoutesMatchPerHostRoutes(t *testing.T) {
	shape := func(spines, leaves, hosts int) Params {
		p := testParams(AlgMLCC)
		p.SpinesPerDC, p.LeavesPerDC, p.HostsPerLeaf = spines, leaves, hosts
		return p
	}
	for _, c := range []struct {
		name string
		n    *Network
	}{
		{"default", TwoDC(testParams(AlgMLCC))},
		{"dumbbell", Dumbbell(testParams(AlgMLCC))},
		{"spineless 3-leaf", TwoDC(shape(0, 3, 4))},
		{"one host per leaf", TwoDC(shape(2, 4, 1))},
		{"2048 hosts", TwoDC(shape(2, 32, 32))},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref := perHostRoutes(c.n)
			for _, sw := range c.n.Switches() {
				for h := 0; h < c.n.NumHosts(); h++ {
					dst := nodeID(h)
					for f := pkt.FlowID(0); f < 64; f++ {
						if got, want := sw.RouteFor(dst, f), ref[sw].RouteFor(dst, f); got != want {
							t.Fatalf("switch %d, dst %d, flow %d: port %d, per-host table says %d", sw.ID(), dst, f, got, want)
						}
					}
				}
			}
		})
	}
}

// TestRackRTTsMatchWalks pins the per-rack-pair base-RTT memo: on each shape
// every (src, dst) pair's base RTT equals a fresh walk of its own route,
// although only the first pair of each rack pair is walked.
func TestRackRTTsMatchWalks(t *testing.T) {
	shape := func(spines, leaves, hosts int) Params {
		p := testParams(AlgMLCC)
		p.SpinesPerDC, p.LeavesPerDC, p.HostsPerLeaf = spines, leaves, hosts
		return p
	}
	for _, c := range []struct {
		name string
		n    *Network
	}{
		{"one leaf per DC", TwoDC(shape(2, 1, 4))},
		{"no spines", TwoDC(shape(0, 3, 4))},
		{"three spines", TwoDC(shape(3, 4, 4))},
		{"dumbbell", Dumbbell(testParams(AlgMLCC))},
	} {
		t.Run(c.name, func(t *testing.T) {
			for src := 0; src < c.n.NumHosts(); src++ {
				for dst := 0; dst < c.n.NumHosts(); dst++ {
					if src == dst {
						continue
					}
					want, _ := c.n.walk(src, dst, false)
					if got := c.n.baseRTT(src, dst); got != want {
						t.Fatalf("%d→%d: base RTT %v, its walk says %v", src, dst, got, want)
					}
				}
			}
		})
	}
}

// FuzzTwoDCRoutes builds TwoDC fabrics of arbitrary shape, checks that the
// device ids are exactly 1..len(devs) in table order and that NodeName names
// each row, and walks every (src, dst) pair: each walk reaches dst's NIC
// through at most six switches (leaf, spine, DCI on each side), never meets a
// routing hole (RouteFor panics) and never enters a switch twice. The
// 128-host seed is a shape per-tier id blocks from 100 aliased.
func FuzzTwoDCRoutes(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(4), uint32(0))
	f.Add(uint8(1), uint8(0), uint8(1), uint32(7))
	f.Add(uint8(3), uint8(0), uint8(4), uint32(1))
	f.Add(uint8(7), uint8(2), uint8(7), uint32(0))
	f.Fuzz(func(t *testing.T, leaves, spines, hosts uint8, flow uint32) {
		p := testParams(AlgMLCC)
		p.LeavesPerDC, p.SpinesPerDC, p.HostsPerLeaf = 1+int(leaves)%8, int(spines)%5, 1+int(hosts)%8
		n := TwoDC(p)
		shape := fmt.Sprintf("%d leaves, %d spines, %d hosts per leaf", p.LeavesPerDC, p.SpinesPerDC, p.HostsPerLeaf)
		ids := make([]pkt.NodeID, 0, len(n.devs))
		for _, h := range n.Hosts {
			ids = append(ids, h.ID())
		}
		for _, sw := range n.Switches() {
			ids = append(ids, sw.ID())
		}
		if len(ids) != len(n.devs) {
			t.Fatalf("%s: %d hosts and switches, %d table rows", shape, len(ids), len(n.devs))
		}
		for i, id := range ids {
			if d := &n.devs[i]; id != pkt.NodeID(i+1) || n.NodeName(int32(id)) != d.name() {
				t.Fatalf("%s: row %d (%s) has id %d named %q, want id %d", shape, i, d.name(), id, n.NodeName(int32(id)), i+1)
			}
		}
		for src := 0; src < n.NumHosts(); src++ {
			for dst := 0; dst < n.NumHosts(); dst++ {
				if src == dst {
					continue
				}
				to := nodeID(dst)
				seen := map[pkt.NodeID]bool{}
				out := n.Hosts[src].Port()
				for {
					sw, ok := out.Peer().Owner.(*fabric.Switch)
					if !ok {
						if got := out.Peer().Owner; got != n.Hosts[dst] {
							t.Fatalf("%s: %d→%d reached %v, not host %d", shape, src, dst, got, dst)
						}
						break
					}
					if seen[sw.ID()] || len(seen) == 6 {
						t.Fatalf("%s: %d→%d loops or runs long at switch %d after %d switches", shape, src, dst, sw.ID(), len(seen))
					}
					seen[sw.ID()] = true
					out = sw.Port(sw.RouteFor(to, pkt.FlowID(flow)))
				}
			}
		}
	})
}
