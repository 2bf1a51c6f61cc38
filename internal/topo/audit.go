package topo

import (
	"mlcc/internal/audit"
	"mlcc/internal/pkt"
)

// applyAudit wires a built network into its conservation ledger: every host
// and switch reports flow-level events, every port reports fault-layer drops,
// and every cable is registered for per-link frame conservation. A nil
// Audit (the default) makes this a no-op, preserving the unaudited build
// bit-for-bit (TestDigestAuditInvariant pins this).
//
// Link names are the device table's (device.linkName), which linkByName
// inverts, so an audit violation and a fault plan speak the same vocabulary:
// "host<i>" for NIC cables, "leaf<i>:<p>" / "spine<i>:<p>" / "dci<i>:<p>" for
// the first-visited end of a fabric cable, and "longhaul" for the DCI↔DCI
// fiber.
// On a sharded build the caller's ledger becomes shard 0's and a fresh
// partial ledger is created per further shard: every component reports into
// its own shard's ledger only (no cross-engine writes mid-run), and the
// end-of-run accessors recombine the halves with audit.Merged so the books
// still close across the shard boundary.
func (n *Network) applyAudit() {
	aud := n.P.Audit
	if aud == nil {
		return
	}
	n.auds = []*audit.Ledger{aud}
	if n.shards > 1 {
		aud.SetPartial(true)
		for i := 1; i < n.shards; i++ {
			a := audit.New()
			a.SetPartial(true)
			n.auds = append(n.auds, a)
		}
	}
	// Each shard's ledger dumps into that shard's flight-recorder ring, so a
	// violation's context never crosses an engine boundary mid-run.
	if frs := n.P.Telemetry.ShardRecorders(n.shards); frs != nil {
		for i, a := range n.auds {
			a.SetRecorder(frs[i])
		}
	}
	// Each device reports flow-level events into its own shard's ledger,
	// and every port gets the fault-drop observer (same ledger). Cables are
	// registered at their first-visited end, as FaultSurface names them. The
	// long-haul cable is registered in the first-visited end's ledger; its
	// per-link equation reads both ports' counters, which is safe because
	// Problems only runs with all shards quiescent.
	drops := make([]func(*pkt.Packet, bool), len(n.auds)) // one bound hook per ledger, shared by its ports
	for i, led := range n.auds {
		drops[i] = led.OnFaultDrop
	}
	for i := range n.devs {
		d := &n.devs[i]
		led := n.auds[d.shard]
		if d.host != nil {
			d.host.SetAudit(led)
		} else {
			d.sw.SetAudit(led)
		}
		for _, port := range d.ports {
			port.SetAuditDrop(drops[d.shard])
		}
	}
	n.cables(func(d *device, p int) {
		n.auds[d.shard].AddLink(d.linkName(p), d.ports[p], d.ports[p].Peer())
	})
}

// ledger returns the ledger end-of-run checks should use: the caller's on a
// single-engine build, the merge of every shard's on a sharded one. Merging
// is cheap (per-flow record combination) relative to a run, and re-merging
// per call keeps the partial ledgers live for further simulation.
func (n *Network) ledger() *audit.Ledger {
	if len(n.auds) > 1 {
		return audit.Merged(n.auds...)
	}
	return n.P.Audit
}

// Audit returns the network's conservation ledger (possibly nil). On a
// sharded build this is a merged snapshot of the per-shard ledgers.
func (n *Network) Audit() *audit.Ledger { return n.ledger() }

// AuditProblems runs the ledger's end-of-run checks, telling it whether the
// packet pools have fully drained; nil without a ledger or when clean.
func (n *Network) AuditProblems() []string {
	return n.ledger().Problems(n.Drained())
}
