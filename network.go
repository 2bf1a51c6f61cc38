package mlcc

import (
	"mlcc/internal/host"
	"mlcc/internal/topo"
)

// Network is a simulation a caller drives flow-by-flow: place transfers,
// advance virtual time, observe throughput and switch queues.
type Network struct {
	n *topo.Network
}

// Flow is a transfer placed on a Network.
type Flow struct {
	f *host.Flow
	n *topo.Network
}

// NewNetwork builds cfg's network for a caller to drive: its shape, rates
// and planes as Run would build them, with any flows cfg describes (a trace,
// a generated workload or a scenario) registered. Most callers leave the
// workload empty and place transfers with AddFlow.
func NewNetwork(cfg Config) (*Network, error) {
	b, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	return &Network{n: b.Net}, nil
}

// NumHosts reports the total number of servers.
func (nw *Network) NumHosts() int { return nw.n.NumHosts() }

// HostsPerDC reports the servers per datacenter.
func (nw *Network) HostsPerDC() int { return nw.n.HostsPerDC }

// RackHost returns the host index of server i (0-based) in paper rack r
// (1-based); racks 1–4 are DC 0, racks 5–8 are DC 1.
func (nw *Network) RackHost(r, i int) int { return nw.n.RackHost(r, i) }

// CrossDC reports whether src→dst crosses datacenters.
func (nw *Network) CrossDC(src, dst int) bool { return nw.n.CrossDC(src, dst) }

// IntraRTT returns the base intra-DC (different-rack) round-trip time.
func (nw *Network) IntraRTT() Time { return nw.n.IntraRTT() }

// CrossRTT returns the base cross-DC round-trip time.
func (nw *Network) CrossRTT() Time { return nw.n.CrossRTT() }

// Now returns the current simulation time.
func (nw *Network) Now() Time { return nw.n.Now() }

// AddFlow schedules a transfer of size bytes from host src to host dst
// starting at the given simulation time.
func (nw *Network) AddFlow(src, dst int, size int64, start Time) *Flow {
	return &Flow{f: nw.n.AddFlow(src, dst, size, start), n: nw.n}
}

// RunUntil advances the simulation to time t.
func (nw *Network) RunUntil(t Time) { nw.n.Run(t) }

// DCIQueueBytes reports the buffered bytes at datacenter dc's DCI switch
// (including MLCC per-flow queues).
func (nw *Network) DCIQueueBytes(dc int) int64 {
	return nw.n.DCIs[dc].BufferUsed()
}

// LeafQueueBytes reports the buffered bytes at the leaf switch of the given
// paper rack (1-based).
func (nw *Network) LeafQueueBytes(rack int) int64 {
	return nw.n.Leaves[rack-1].BufferUsed()
}

// PFCPauses reports the total PFC pause events generated so far.
func (nw *Network) PFCPauses() int64 { return nw.n.Summary().PFCPauses }

// Done reports whether the flow's last byte has been received.
func (fl *Flow) Done() bool { return fl.f.Done }

// FCT returns the flow completion time (0 while unfinished).
func (fl *Flow) FCT() Time { return fl.f.FCT() }

// ReceivedBytes reports payload bytes delivered so far.
func (fl *Flow) ReceivedBytes() int64 { return fl.f.RxBytes }

// Size returns the flow's payload size in bytes.
func (fl *Flow) Size() int64 { return fl.f.Info.Size }
