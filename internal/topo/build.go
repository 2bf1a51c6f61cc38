package topo

import (
	"fmt"
	"math"

	"mlcc/internal/cc"
	"mlcc/internal/dci"
	"mlcc/internal/fabric"
	"mlcc/internal/host"
	"mlcc/internal/link"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// Node id blocks: hosts get 1+index, switches live in high ranges so a
// trace is easy to read.
const (
	leafIDBase  = 100
	spineIDBase = 200
	dciIDBase   = 300
)

// TwoDC builds the paper's two-datacenter spine-leaf network (Fig. 1). With
// SpinesPerDC = 0 each leaf uplinks straight to its DC's DCI: the §4.6
// dumbbell is that fabric with one leaf per DC (see Dumbbell).
func TwoDC(p Params) *Network {
	n := newNetwork(p)

	leavesTotal := 2 * p.LeavesPerDC
	spinesTotal := 2 * p.SpinesPerDC
	// A DCI's DC-facing ports go to the spines, or to the leaves when the DC
	// has no spine; its long-haul port follows them.
	lhPort := p.SpinesPerDC
	if lhPort == 0 {
		lhPort = p.LeavesPerDC
	}

	// Create switches, each on its DC's engine and pool.
	for i := 0; i < leavesTotal; i++ {
		d := n.leafDC(i)
		n.Leaves = append(n.Leaves, fabric.New(n.engOf(d), n.poolOf(d), n.dcSwitchCfg(pkt.NodeID(leafIDBase+i))))
	}
	for i := 0; i < spinesTotal; i++ {
		d := n.spineDC(i)
		n.Spines = append(n.Spines, fabric.New(n.engOf(d), n.poolOf(d), n.dcSwitchCfg(pkt.NodeID(spineIDBase+i))))
	}
	for d := 0; d < 2; d++ {
		n.DCIs = append(n.DCIs, dci.New(n.engOf(d), n.poolOf(d), n.dciCfg(pkt.NodeID(dciIDBase+d), lhPort)))
	}

	// Create hosts and host↔leaf links.
	for h := 0; h < n.NumHosts(); h++ {
		hh := n.newHost(h, p.HostLinkDelay)
		leaf := n.Leaves[n.Rack(h)]
		lp := leaf.AddPort(p.HostRate, p.HostLinkDelay)
		link.Connect(hh.Port(), lp)
	}

	// Leaf↔spine links (full mesh within each DC). Leaf ports
	// [HostsPerLeaf, HostsPerLeaf+SpinesPerDC) are the uplinks; spine ports
	// [0, LeavesPerDC) are the downlinks, in leaf order. Without spines each
	// leaf has one uplink, port HostsPerLeaf, to the DCI, whose ports
	// [0, LeavesPerDC) are then the downlinks, in leaf order.
	for d := 0; d < 2; d++ {
		for li := 0; li < p.LeavesPerDC; li++ {
			leaf := n.Leaves[d*p.LeavesPerDC+li]
			if p.SpinesPerDC == 0 {
				link.Connect(leaf.AddPort(p.FabricRate, p.FabricDelay), n.DCIs[d].AddPort(p.FabricRate, p.FabricDelay))
			}
			for si := 0; si < p.SpinesPerDC; si++ {
				spine := n.Spines[d*p.SpinesPerDC+si]
				up := leaf.AddPort(p.FabricRate, p.FabricDelay)
				down := spine.AddPort(p.FabricRate, p.FabricDelay)
				link.Connect(up, down)
			}
		}
	}

	// Spine↔DCI links: spine port LeavesPerDC; DCI ports [0, SpinesPerDC).
	for d := 0; d < 2; d++ {
		for si := 0; si < p.SpinesPerDC; si++ {
			spine := n.Spines[d*p.SpinesPerDC+si]
			up := spine.AddPort(p.FabricRate, p.FabricDelay)
			down := n.DCIs[d].AddPort(p.FabricRate, p.FabricDelay)
			link.Connect(up, down)
		}
	}

	// Long-haul link: DCI port lhPort on each side.
	n.connectLongHaul()

	// Routes.
	for h := 0; h < n.NumHosts(); h++ {
		id := n.HostID(h)
		hd := n.DC(h)
		rack := n.Rack(h)
		localRack := rack % p.LeavesPerDC

		for d := 0; d < 2; d++ {
			for li := 0; li < p.LeavesPerDC; li++ {
				leaf := n.Leaves[d*p.LeavesPerDC+li]
				if d == hd && li == localRack {
					leaf.AddRoute(id, h%p.HostsPerLeaf)
				} else {
					for u := 0; u < max(p.SpinesPerDC, 1); u++ {
						leaf.AddRoute(id, p.HostsPerLeaf+u)
					}
				}
			}
			for si := 0; si < p.SpinesPerDC; si++ {
				spine := n.Spines[d*p.SpinesPerDC+si]
				if d == hd {
					spine.AddRoute(id, localRack)
				} else {
					spine.AddRoute(id, p.LeavesPerDC)
				}
			}
			dciSw := n.DCIs[d]
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

	n.finish()
	return n
}

// Dumbbell is the §4.6 testbed shape as a TwoDC preset: one leaf (ToR) per
// DC, no spine, at least two servers per ToR. It and Network.Dumbbell are
// kept for the benchmark harness, which builds the testbed by name.
func Dumbbell(p Params) *Network {
	p.HostsPerLeaf = max(p.HostsPerLeaf, 2)
	p.LeavesPerDC, p.SpinesPerDC = 1, 0
	n := TwoDC(p)
	n.Dumbbell = true
	return n
}

// finish completes a wired build: the route-derived parameters, DCI
// behaviours, the shard scheduler, the device table, then one attach pass
// per plane over that table. Adding a plane means adding one pass here.
func (n *Network) finish() {
	// The DQM loop RTTs and the INT stack size are walked off the routes.
	// The DCIs read their DQM parameters at a flow's first packet.
	n.P.DQM.RTTc, n.P.DQM.RTTd = n.CrossRTT(), n.FarRTT(0)
	n.P.DQM.MTU, n.P.DQM.MaxRate = n.P.MTU, n.P.HostRate
	for _, pl := range n.Pools {
		pl.StackCap = n.stampingPath()
	}
	for _, d := range n.DCIs {
		d.SetDQM(n.P.DQM)
		d.Finalize()
	}
	n.finishShards()
	n.buildDevices()
	n.applyTelemetry()
	n.applyFaults()
	n.applyAudit()
	n.applyGuard()
}

func newNetwork(p Params) *Network {
	if p.MTU <= 0 || p.MTU > math.MaxInt32 {
		panic(fmt.Sprintf("topo: MTU %d B is not in 1..%d, the range of a frame's int32 size", p.MTU, math.MaxInt32))
	}
	shards := p.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > 2 {
		shards = 2 // one shard per DC; the fabric has two
	}
	if p.LongHaulDelay <= 0 {
		shards = 1 // no lookahead to bound the barriers
	}
	engines := make([]*sim.Engine, shards)
	pools := make([]*pkt.Pool, shards)
	for i := range engines {
		engines[i] = sim.NewEngine()
		pools[i] = pkt.NewPool()
	}
	n := &Network{
		P:          p,
		Engines:    engines,
		Pools:      pools,
		Table:      host.NewTable(),
		HostsPerDC: p.LeavesPerDC * p.HostsPerLeaf,
		numHosts:   2 * p.LeavesPerDC * p.HostsPerLeaf,
		shards:     shards,
	}
	if p.Alg == nil {
		panic("topo: Params.Alg is required")
	}
	// One CC bundle per shard: algorithms with timers (DCQCN) bind the
	// engine, so each shard's hosts must draw senders from their own bundle.
	n.algs = make([]cc.Algorithm, shards)
	for i := range n.algs {
		n.algs[i] = p.Alg(engines[i])
	}
	n.Alg = n.algs[0]
	return n
}

// stampingPath is the deepest INT stack a frame of this network carries: one
// record per switch on the walk from a host to its DCI, once per DC, or
// that walk's count alone under MLCC, whose DCIs take the stack off at the
// long haul. Pools allocate INT stacks at this size
// (TestINTStackCapacityIsTight).
func (n *Network) stampingPath() int {
	if !n.P.INTEnabled {
		return 0
	}
	_, switches := n.walk(0, n.peerDCHost(0), true)
	if n.Alg.UseMLCCDCI {
		return switches
	}
	return 2 * switches
}

// connectLongHaul adds the long-haul port to each DCI — after its DC-facing
// ports, so it is always the last one — and joins the two: a plain link on a
// single-engine build, a cross-shard mailbox link on a sharded one.
func (n *Network) connectLongHaul() {
	lh0 := n.DCIs[0].AddPort(n.P.FabricRate, n.P.LongHaulDelay)
	lh1 := n.DCIs[1].AddPort(n.P.FabricRate, n.P.LongHaulDelay)
	if n.shards > 1 {
		link.ConnectCross(lh0, lh1)
		n.crossA, n.crossB = lh0, lh1
		return
	}
	link.Connect(lh0, lh1)
}

// finishShards arms the conservative barrier scheduler over the per-DC
// engines. The lookahead is the long-haul propagation delay — the minimum
// delay of any cross-shard link — so every frame launched inside a window
// arrives strictly after the window's barrier and can be scheduled at its
// exact arrival time by the exchange. The exchange flushes the two mailbox
// directions in fixed DC0→DC1 order at every barrier, keeping sharded runs
// bit-deterministic (see DESIGN.md, "Parallel engine").
func (n *Network) finishShards() {
	if n.shards == 1 {
		return
	}
	n.group = sim.NewShardGroup(n.Engines, n.P.LongHaulDelay, func(sim.Time) {
		n.crossA.FlushCross()
		n.crossB.FlushCross()
	})
}

func (n *Network) newHost(h int, delay sim.Time) *host.Host {
	cfg := host.Config{
		ID:          n.HostID(h),
		Rate:        n.P.HostRate,
		MTU:         n.P.MTU,
		CNPInterval: n.P.CNPInterval,
		RTOMin:      n.P.RTOMin,
		RTOMax:      n.P.RTOMax,
		MaxRetrans:  n.P.MaxRetrans,
		FBWatchdogK: n.P.FBWatchdogK,
	}
	dc := n.DC(h)
	alg := n.algOf(dc)
	hh := host.New(n.engOf(dc), n.poolOf(dc), cfg, n.Table, alg.NewSender, alg.NewReceiver, delay)
	n.Hosts = append(n.Hosts, hh)
	return hh
}

func (n *Network) dcSwitchCfg(id pkt.NodeID) fabric.Config {
	return fabric.Config{
		ID:          id,
		BufferBytes: n.P.DCBuffer,
		ECNKmin:     n.P.DCKmin,
		ECNKmax:     n.P.DCKmax,
		ECNPmax:     n.P.ECNPmax,
		PFCEnabled:  n.P.PFCEnabled,
		PFCXoff:     n.P.DCXoff,
		PFCXon:      n.P.DCXon,
		INTEnabled:  n.P.INTEnabled,
		Seed:        n.P.Seed,
	}
}

func (n *Network) dciCfg(id pkt.NodeID, longHaulPort int) dci.Config {
	mlcc := n.Alg.UseMLCCDCI
	return dci.Config{
		Fabric: fabric.Config{
			ID:          id,
			BufferBytes: n.P.DCIBuffer,
			ECNKmin:     n.P.DCIKmin,
			ECNKmax:     n.P.DCIKmax,
			ECNPmax:     n.P.ECNPmax,
			PFCEnabled:  n.P.PFCEnabled,
			PFCXoff:     n.P.DCIXoff,
			PFCXon:      n.P.DCIXon,
			// Under MLCC the DCI clears/reinserts INT itself.
			INTEnabled: n.P.INTEnabled && !mlcc,
			Seed:       n.P.Seed,
		},
		LongHaulPort: longHaulPort,
		MLCC:         mlcc,
		InitRate:     n.P.HostRate,
	}
}
