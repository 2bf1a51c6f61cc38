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

// TwoDC builds the paper's two-datacenter spine-leaf network (Fig. 1).
func TwoDC(p Params) *Network {
	n := newNetwork(p, 2*p.LeavesPerDC*p.HostsPerLeaf, false)

	leavesTotal := 2 * p.LeavesPerDC
	spinesTotal := 2 * p.SpinesPerDC

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
		n.DCIs = append(n.DCIs, dci.New(n.engOf(d), n.poolOf(d), n.dciCfg(pkt.NodeID(dciIDBase+d), p.SpinesPerDC)))
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
	// [0, LeavesPerDC) are the downlinks, in leaf order.
	for d := 0; d < 2; d++ {
		for li := 0; li < p.LeavesPerDC; li++ {
			leaf := n.Leaves[d*p.LeavesPerDC+li]
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

	// Long-haul link: DCI port SpinesPerDC on each side.
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
					for si := 0; si < p.SpinesPerDC; si++ {
						leaf.AddRoute(id, p.HostsPerLeaf+si)
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
			if d == hd {
				for si := 0; si < p.SpinesPerDC; si++ {
					dciSw.AddRoute(id, si)
				}
			} else {
				dciSw.AddRoute(id, p.SpinesPerDC)
			}
		}
	}

	n.finish()
	return n
}

// Dumbbell builds the §4.6 testbed shape: two servers per ToR, one ToR per
// DC, DCI switches joined by the long-haul link. Host indices 0,1 are DC 0.
func Dumbbell(p Params) *Network {
	if p.HostsPerLeaf < 2 {
		p.HostsPerLeaf = 2
	}
	p.LeavesPerDC = 1
	p.SpinesPerDC = 0
	n := newNetwork(p, 2*p.HostsPerLeaf, true)

	for i := 0; i < 2; i++ {
		n.Leaves = append(n.Leaves, fabric.New(n.engOf(i), n.poolOf(i), n.dcSwitchCfg(pkt.NodeID(leafIDBase+i))))
		n.DCIs = append(n.DCIs, dci.New(n.engOf(i), n.poolOf(i), n.dciCfg(pkt.NodeID(dciIDBase+i), 1)))
	}

	for h := 0; h < n.NumHosts(); h++ {
		hh := n.newHost(h, p.HostLinkDelay)
		tor := n.Leaves[n.DC(h)]
		tp := tor.AddPort(p.HostRate, p.HostLinkDelay)
		link.Connect(hh.Port(), tp)
	}

	for d := 0; d < 2; d++ {
		up := n.Leaves[d].AddPort(p.FabricRate, p.FabricDelay)
		down := n.DCIs[d].AddPort(p.FabricRate, p.FabricDelay)
		link.Connect(up, down)
	}
	n.connectLongHaul()

	for h := 0; h < n.NumHosts(); h++ {
		id := n.HostID(h)
		hd := n.DC(h)
		for d := 0; d < 2; d++ {
			if d == hd {
				n.Leaves[d].AddRoute(id, h%p.HostsPerLeaf)
				n.DCIs[d].AddRoute(id, 0)
			} else {
				n.Leaves[d].AddRoute(id, p.HostsPerLeaf)
				n.DCIs[d].AddRoute(id, 1)
			}
		}
	}

	n.finish()
	return n
}

// finish completes a wired build: DCI behaviours, the shard scheduler, the
// device table, then one attach pass per plane over that table. Adding a
// plane means adding one pass here.
func (n *Network) finish() {
	for _, d := range n.DCIs {
		d.Finalize()
	}
	n.finishShards()
	n.buildDevices()
	n.applyTelemetry()
	n.applyFaults()
	n.applyAudit()
	n.applyGuard()
}

func newNetwork(p Params, numHosts int, dumbbell bool) *Network {
	if p.MTU <= 0 || p.MTU > math.MaxInt32 {
		panic(fmt.Sprintf("topo: MTU %d B is not in 1..%d, the range of a frame's int32 size", p.MTU, math.MaxInt32))
	}
	shards := p.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > 2 {
		shards = 2 // one shard per DC; both topologies have two
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
		HostsPerDC: numHosts / 2,
		Dumbbell:   dumbbell,
		numHosts:   numHosts,
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
	for _, pl := range pools {
		pl.StackCap = n.stampingPath()
	}
	// Fill topology-dependent DQM parameters.
	n.P.DQM.RTTc = n.CrossRTT()
	n.P.DQM.RTTd = n.FarRTT(0)
	n.P.DQM.MTU = p.MTU
	n.P.DQM.MaxRate = p.HostRate
	return n
}

// stampingPath is the deepest INT stack a frame of this network carries: one
// record per switch across both DCs (leaf, spine unless a dumbbell, DCI), or
// one DC's worth under MLCC, whose DCIs take the stack off at the long haul.
// Pools allocate INT stacks at this size (TestINTStackCapacityIsTight).
func (n *Network) stampingPath() int {
	perDC := 3
	if n.Dumbbell {
		perDC = 2
	}
	switch {
	case !n.P.INTEnabled:
		return 0
	case n.Alg.UseMLCCDCI:
		return perDC
	}
	return 2 * perDC
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

func (n *Network) dciCfg(id pkt.NodeID, spines int) dci.Config {
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
		LongHaulPort: spines,
		MLCC:         mlcc,
		DQM:          n.P.DQM,
		InitRate:     n.P.HostRate,
	}
}
