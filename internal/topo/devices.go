package topo

import (
	"fmt"
	"strconv"
	"strings"

	"mlcc/internal/fabric"
	"mlcc/internal/host"
	"mlcc/internal/link"
	"mlcc/internal/metrics"
)

// device is one row of the network's device table: the single enumeration of
// what exists that every plane pass (telemetry, audit, guard, fault
// resolution) walks and every name or id lookup consults, so device names,
// ids, shards and port order are decided in one place. Rows are ordered
// hosts, leaves, spines, DCIs — the order audit link registration, guard
// nodes and metric registration have always used, which keeps first-visited
// link names and -sample-all stream order stable — and row i's device has
// node id i+1 (nodeID), so hosts keep 1+index. A row builds no string:
// its names derive from its kind and index when a plane asks, so a
// planes-off build names nothing.
type device struct {
	word  string // the row's kind, a constant: "host", "leaf", "spine" or "dci"
	nm    string // the name, once built
	idx   int32  // the row's index among the devices of its kind
	shard int    // runs on Engines[shard] and Pools[shard]; see shardOf

	host *host.Host     // exactly one of host and sw is set
	sw   *fabric.Switch // the embedded fabric switch on DCI rows
	// src enumerates the row's instruments: the host, the switch, or the
	// DCI wrapper whose Instruments adds the MLCC counters.
	src metrics.Source

	ports []*link.Port
	// longHaul is the index in ports of the DCI↔DCI fiber; -1 on every
	// other device.
	longHaul int
	// up is where the ports cabled to later rows begin: a row names the
	// cables on ports[up:] (see cables), its earlier neighbours the rest.
	up int
}

// spell is prefix followed by d's index, built with one allocation.
func (d *device) spell(prefix string) string {
	var b [32]byte
	return string(strconv.AppendInt(append(b[:0], prefix...), int64(d.idx), 10))
}

// name is the device's word in the vocabulary fault plans, audit problems,
// guard dumps and traces share: "host3", "leaf0", "spine1", "dci0". It is
// built on first ask and kept, so the planes that name a device share one
// string. Only the build and the goroutine driving the network ask;
// NodeName, which a server may call from any goroutine, spells it afresh.
func (d *device) name() string {
	if d.nm == "" {
		d.nm = d.spell(d.word)
	}
	return d.nm
}

// named reports whether name is d's name, building no string.
func (d *device) named(name string) bool {
	rest, ok := strings.CutPrefix(name, d.word)
	var b [20]byte
	return ok && string(strconv.AppendInt(b[:0], int64(d.idx), 10)) == rest
}

// Prefix implements metrics.Named: the registry prefix ("host.h3",
// "switch.leaf0", "dci.dci1"), spelled afresh whenever a reader names
// instruments, so registering a device builds no string.
func (d *device) Prefix() string {
	switch d.word {
	case "host":
		return d.spell("host.h")
	case "dci":
		return d.spell("dci.dci")
	}
	return d.spell("switch." + d.word)
}

// Instruments implements metrics.Source with the row's source.
func (d *device) Instruments(emit func(port int, name string, kind metrics.Kind, v float64)) {
	d.src.Instruments(emit)
}

// buildDevices fills the device table from the wired topology. A switch
// row lists its switch's own ports; the host rows' one-port lists slice one
// shared array.
func (n *Network) buildDevices() {
	n.devs = make([]device, 0, len(n.Hosts)+len(n.Leaves)+len(n.Spines)+len(n.DCIs))
	nics := make([]*link.Port, len(n.Hosts))
	for i, h := range n.Hosts {
		nics[i] = h.Port()
		n.devs = append(n.devs, device{word: "host", idx: int32(i), shard: n.shardOf(n.DC(i)),
			host: h, src: h, ports: nics[i : i+1 : i+1], longHaul: -1})
	}
	add := func(word string, i, dc int, sw *fabric.Switch, src metrics.Source, longHaul, up int) {
		n.devs = append(n.devs, device{word: word, idx: int32(i), shard: n.shardOf(dc),
			sw: sw, src: src, ports: sw.Ports(), longHaul: longHaul, up: up})
		n.switches = append(n.switches, sw)
	}
	// TwoDC's port layouts: a leaf's hosts, then its uplinks; a spine's
	// leaves, then its DCI uplink; a DCI's fabric side, then the long haul.
	for i, sw := range n.Leaves {
		add("leaf", i, n.leafDC(i), sw, sw, -1, n.P.HostsPerLeaf)
	}
	for i, sw := range n.Spines {
		add("spine", i, n.spineDC(i), sw, sw, -1, n.P.LeavesPerDC)
	}
	for i, d := range n.DCIs {
		// connectLongHaul adds the long-haul port last.
		lh := d.NumPorts() - 1
		add("dci", i, i, d.Switch, d, lh, lh+i)
	}
}

// Switches returns every switch — leaves, spines, then the DCIs' embedded
// fabric switches — for callers that only read or sum per-switch state.
func (n *Network) Switches() []*fabric.Switch { return n.switches }

// device returns the table row with the given name, or nil.
func (n *Network) device(name string) *device {
	for i := range n.devs {
		if n.devs[i].named(name) {
			return &n.devs[i]
		}
	}
	return nil
}

// cables calls fn once per cable, at the end the table visits first: port p
// of d, one of the row's ports[up:]. Table order is deterministic, so the
// names linkName gives those ends are too.
func (n *Network) cables(fn func(d *device, p int)) {
	for i := range n.devs {
		d := &n.devs[i]
		for p := d.up; p < len(d.ports); p++ {
			fn(d, p)
		}
	}
}

// FaultSurface returns the names a fault plan may target on n: every cable,
// named at its first-visited end exactly as the audit ledger registers it,
// and every device.
func (n *Network) FaultSurface() (links, nodes []string) {
	n.cables(func(d *device, p int) { links = append(links, d.linkName(p)) })
	for i := range n.devs {
		nodes = append(nodes, n.devs[i].name())
	}
	return links, nodes
}

// linkName names the cable on port p of d: "host<i>" for a NIC cable,
// "longhaul" for the DCI↔DCI fiber, "<switch>:<p>" otherwise.
func (d *device) linkName(p int) string {
	switch {
	case d.host != nil:
		return d.name()
	case p == d.longHaul:
		return "longhaul"
	}
	return d.name() + ":" + strconv.Itoa(p)
}

// port resolves a link name to the named end of its cable: the inverse of
// linkName, additionally accepting the long-haul ports under their
// switch-relative names ("dci0:2").
func (n *Network) port(name string) *link.Port {
	if name == "longhaul" {
		d := n.device("dci0")
		return d.ports[d.longHaul]
	}
	dev, idx, isPort := strings.Cut(name, ":")
	d := n.device(dev)
	if d == nil || isPort == (d.host != nil) {
		return nil // hosts are named bare, switch ports always with an index
	}
	if !isPort {
		return d.ports[0]
	}
	p, err := strconv.Atoi(idx)
	if err != nil || p < 0 || p >= len(d.ports) {
		return nil
	}
	return d.ports[p]
}

// NodeName maps a flight-recorder node id to its topology name ("host3",
// "leaf0", "spine1", "dci0"): id i names table row i-1. Negative ids are the
// fault layer's dedicated namespace (fault.FaultNodeID) naming the injected
// link, so merged traces never alias a fault event to a real node.
func (n *Network) NodeName(id int32) string {
	if id < 0 {
		if name := n.Faults.LinkNameAt(int(-1 - id)); name != "" {
			return "fault:" + name
		}
	}
	if row := int64(id) - 1; row >= 0 && row < int64(len(n.devs)) {
		return n.devs[row].spell(n.devs[row].word)
	}
	return fmt.Sprintf("node%d", id)
}
