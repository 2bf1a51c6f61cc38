package mlcc

import (
	"mlcc/internal/host"
	"mlcc/internal/topo"
)

// Network is a simulation a caller drives flow-by-flow: place transfers,
// advance virtual time, observe flow completions and the DCI queues
// (ExampleNewNetwork).
type Network struct {
	n *topo.Network
}

// Flow is a transfer placed on a Network.
type Flow struct {
	f *host.Flow
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

// RackHost returns the host index of server i (0-based) in paper rack r
// (1-based); racks 1–4 are DC 0, racks 5–8 are DC 1.
func (nw *Network) RackHost(r, i int) int { return nw.n.RackHost(r, i) }

// AddFlow schedules a transfer of size bytes from host src to host dst
// starting at the given simulation time.
func (nw *Network) AddFlow(src, dst int, size int64, start Time) *Flow {
	return &Flow{f: nw.n.AddFlow(src, dst, size, start)}
}

// RunUntil advances the simulation to time t.
func (nw *Network) RunUntil(t Time) { nw.n.Run(t) }

// DCIQueueBytes reports the buffered bytes at datacenter dc's DCI switch
// (including MLCC per-flow queues).
func (nw *Network) DCIQueueBytes(dc int) int64 {
	return nw.n.DCIs[dc].BufferUsed()
}

// Done reports whether the flow's last byte has been received.
func (fl *Flow) Done() bool { return fl.f.Done }

// FCT returns the flow completion time (0 while unfinished).
func (fl *Flow) FCT() Time { return fl.f.FCT() }
