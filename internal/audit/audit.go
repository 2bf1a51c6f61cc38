// Package audit is an opt-in end-to-end conservation ledger for one
// simulation. Attached at build time (topo.Params.Audit), it shadows the
// packet plane from the outside: hosts report every data frame they inject
// and deliver per flow, switches report WRED admission drops, and ports
// report frames the fault layer destroys. At run end the ledger asserts that
// every injected byte is accounted for —
//
//	injected = delivered + WRED drops + corruption drops + admin-down drops
//	           (+ in-flight, which must be zero once the packet pool drains)
//
// — per flow, and that per link direction every frame the transmitter
// counted was received by the peer, destroyed by the fault layer, or is
// still on the wire. Go-back-N sanity rides along: the sender's cumulative
// acked prefix must advance monotonically, never past the receiver's
// contiguous prefix, and never past the flow size.
//
// The ledger is strictly passive: it schedules no events, draws no
// randomness and never touches a packet, so an audited run is bit-identical
// to an unaudited one (TestDigestAuditInvariant in internal/exp pins this).
// A nil *Ledger is the off state — every hook is nil-safe and costs one
// branch, mirroring the telemetry layer's zero-overhead-off contract.
//
// Violations detected mid-run (impossible sequence numbers, acked bytes
// that were never delivered) route through metrics.Violation, which replays
// the flight recorder's last packet-lifecycle events before panicking;
// end-of-run accounting gaps come back as strings from Problems. See
// DESIGN.md, "Correctness audit".
package audit

import (
	"fmt"

	"mlcc/internal/link"
	"mlcc/internal/metrics"
	"mlcc/internal/pkt"
)

// The data-frame fates a FlowRec counts, indexing FlowRec.Fates: a frame is
// injected once and ends in exactly one of the other four.
const (
	Injected  = iota // emitted by the sender (incl. retransmits)
	Delivered        // reached the receiving host
	WRED             // dropped at switch shared-buffer admission
	Corrupt          // destroyed by Bernoulli corruption on a link
	Down             // destroyed by an admin-down link (flush or discard)
	fates
)

// count is a tally of data frames and their payload bytes.
type count struct{ Pkts, Bytes int64 }

// add folds o into c.
func (c *count) add(o count) {
	c.Pkts += o.Pkts
	c.Bytes += o.Bytes
}

// FlowRec is the ledger's account of one flow. Retransmissions inflate
// Injected and show up again as duplicates in Delivered, so conservation
// holds per frame, not per distinct payload byte.
type FlowRec struct {
	id   pkt.FlowID
	Size int64 // flow size in payload bytes (0 until OnFlowStart)

	started bool
	done    bool // receiver saw the full contiguous payload
	Aborted bool // sender gave up after its retransmission budget

	Fates [fates]count // by fate: Injected, Delivered, WRED, Corrupt, Down

	dupPkts int64 // delivered frames at or below the receiver's prefix
	gapPkts int64 // delivered frames beyond the receiver's prefix (reordering/loss)

	AckedMax   int64 // sender's cumulative acked prefix (monotone)
	recvPrefix int64 // ledger's replica of the receiver's contiguous prefix
	injectEnd  int64 // highest payload byte offset ever injected (seq+size)

	// AbortUnacked is the payload still unacknowledged when the sender gave
	// up — the "in-flight at abort" fate bucket. Frames of an aborted flow
	// still on the wire keep flowing to a normal fate (delivered as
	// duplicates, or dropped); this records what the abort stranded.
	AbortUnacked int64
}

// unaccounted returns the flow's in-flight frame and byte counts: injected
// minus every terminal fate. Negative values are impossible (a frame cannot
// terminate twice) and always a violation.
func (r *FlowRec) unaccounted() (pkts, bytes int64) {
	pkts, bytes = r.Fates[Injected].Pkts, r.Fates[Injected].Bytes
	for _, c := range r.Fates[Delivered:] {
		pkts -= c.Pkts
		bytes -= c.Bytes
	}
	return pkts, bytes
}

// linkRec is one registered full-duplex link (two ports).
type linkRec struct {
	name string
	a, b *link.Port
}

// Ledger is the conservation ledger. The zero value is not usable; call New.
// A nil *Ledger is valid everywhere and records nothing.
type Ledger struct {
	fr *metrics.FlightRecorder
	// recs[id-1] is flow id's record, live once its id is set (ids are
	// dense from 1, as in host.Table); order is creation order.
	recs  []FlowRec
	order []pkt.FlowID
	links []linkRec

	// controlFaultDrops counts control/PFC frames (no flow attribution)
	// destroyed by the fault layer; they appear in per-link accounting via
	// Port.FaultDrops.
	controlFaultDrops int64

	// feedbackDrops counts feedback frames (ACK/CNP/Switch-INT) the fault
	// layer destroyed at a host's feedback ingress. These frames were
	// already counted as received by the NIC port, so neither per-link nor
	// per-flow data conservation is affected; the ledger carries the total
	// so a feedback-faulted run's books still name every destroyed control
	// frame.
	feedbackDrops int64

	// partial marks a shard-local ledger in a sharded run: it sees only the
	// hooks fired on its own shard, so for a cross-DC flow the sender-side
	// counters (injections, acks) and receiver-side counters (deliveries,
	// prefix) live in different ledgers. The two mid-run checks that compare
	// across that split — "delivered but never injected" and "acked beyond
	// the receiver prefix" — are deferred to the merged ledger, where both
	// sides are present. Everything single-sided still checks mid-run.
	partial bool
}

// New returns an empty ledger.
func New() *Ledger { return &Ledger{} }

// SetRecorder attaches a flight recorder so violations dump packet-lifecycle
// context (nil detaches).
func (l *Ledger) SetRecorder(fr *metrics.FlightRecorder) {
	if l == nil {
		return
	}
	l.fr = fr
}

// SetPartial marks the ledger shard-local: cross-side mid-run checks are
// skipped (see the partial field). End-of-run accounting must go through
// Merged — Problems on a partial ledger would report one-sided books as
// violations.
func (l *Ledger) SetPartial(partial bool) {
	if l == nil {
		return
	}
	l.partial = partial
}

// Merged combines shard-local ledgers into one ledger with closed books: the
// per-flow sender-side and receiver-side halves recombine, so the full check
// suite (Problems, Summary) applies to the whole run. Fate
// counters sum; lifecycle flags OR; the prefix fields (Size, AckedMax,
// recvPrefix, injectEnd) take the maximum, since each is advanced by exactly
// one side and stays zero in the other shard's record. Links and the fault
// counters are owned by whichever part registered them, so concatenation and
// summation keep every frame counted exactly once. Flow order is parts-major
// creation order, which is deterministic because the shard merge order is.
func Merged(parts ...*Ledger) *Ledger {
	m := New()
	for _, p := range parts {
		if p == nil {
			continue
		}
		if m.fr == nil {
			m.fr = p.fr
		}
		m.controlFaultDrops += p.controlFaultDrops
		m.feedbackDrops += p.feedbackDrops
		m.links = append(m.links, p.links...)
		for _, id := range p.order {
			r := &p.recs[id-1]
			t := m.rec(id)
			t.started = t.started || r.started
			t.done = t.done || r.done
			t.Aborted = t.Aborted || r.Aborted
			if r.Size > t.Size {
				t.Size = r.Size
			}
			for f := range t.Fates {
				t.Fates[f].add(r.Fates[f])
			}
			t.dupPkts += r.dupPkts
			t.gapPkts += r.gapPkts
			if r.AckedMax > t.AckedMax {
				t.AckedMax = r.AckedMax
			}
			if r.recvPrefix > t.recvPrefix {
				t.recvPrefix = r.recvPrefix
			}
			if r.injectEnd > t.injectEnd {
				t.injectEnd = r.injectEnd
			}
			t.AbortUnacked += r.AbortUnacked
		}
	}
	return m
}

// rec returns (creating if needed) the record for a flow. The pointer is
// valid until the ledger next creates a record.
func (l *Ledger) rec(id pkt.FlowID) *FlowRec {
	if id <= 0 {
		l.violatef("flow id %d out of range (ids start at 1)", id)
	}
	i := int(id - 1)
	if i >= len(l.recs) {
		l.recs = append(l.recs, make([]FlowRec, i+1-len(l.recs))...)
	}
	r := &l.recs[i]
	if r.id == 0 {
		r.id = id
		l.order = append(l.order, id)
	}
	return r
}

// violatef reports a mid-run invariant violation: flight-recorder dump, then
// panic. The audit plane never limps past an impossible state.
func (l *Ledger) violatef(format string, args ...any) {
	metrics.Violation(l.fr, "audit: "+fmt.Sprintf(format, args...))
}

// OnFlowStart records a flow's registration at its sender.
func (l *Ledger) OnFlowStart(id pkt.FlowID, size int64) {
	if l == nil {
		return
	}
	r := l.rec(id)
	if r.started {
		l.violatef("flow %d started twice", id)
	}
	r.started = true
	r.Size = size
}

// OnInject records one data frame entering the network at its sender (first
// transmission or go-back-N retransmission alike).
func (l *Ledger) OnInject(id pkt.FlowID, seq int64, size int) {
	if l == nil {
		return
	}
	r := l.rec(id)
	if seq < 0 || size <= 0 {
		l.violatef("flow %d injected frame [%d, %d)", id, seq, seq+int64(size))
	}
	if r.Size > 0 && seq+int64(size) > r.Size {
		l.violatef("flow %d injected payload [%d, %d) beyond size %d", id, seq, seq+int64(size), r.Size)
	}
	r.Fates[Injected].add(count{1, int64(size)})
	if end := seq + int64(size); end > r.injectEnd {
		r.injectEnd = end
	}
}

// OnDeliver records one data frame arriving at the receiving host. The
// ledger maintains its own contiguous-prefix replica of the receiver's
// go-back-N state, advanced exactly the way the host advances it.
func (l *Ledger) OnDeliver(id pkt.FlowID, seq int64, size int) {
	if l == nil {
		return
	}
	r := l.rec(id)
	r.Fates[Delivered].add(count{1, int64(size)})
	if !l.partial && seq > r.injectEnd-int64(size) {
		l.violatef("flow %d delivered frame [%d, %d) that was never injected", id, seq, seq+int64(size))
	}
	switch {
	case seq == r.recvPrefix:
		r.recvPrefix += int64(size)
	case seq > r.recvPrefix:
		r.gapPkts++
	default:
		r.dupPkts++
	}
	if r.Size > 0 && r.recvPrefix > r.Size {
		l.violatef("flow %d receiver prefix %d beyond size %d", id, r.recvPrefix, r.Size)
	}
}

// OnAckAdvance records the sender's cumulative acked prefix moving from
// `from` to `to`. The go-back-N invariants live here: the prefix only moves
// forward, in agreement with the ledger's own view, never past what the
// receiver has contiguously received, and never past the flow size.
func (l *Ledger) OnAckAdvance(id pkt.FlowID, from, to int64) {
	if l == nil {
		return
	}
	r := l.rec(id)
	if from != r.AckedMax {
		l.violatef("flow %d acked prefix desync: sender at %d, ledger at %d", id, from, r.AckedMax)
	}
	if to <= from {
		l.violatef("flow %d acked prefix moved backward: %d -> %d", id, from, to)
	}
	if r.Size > 0 && to > r.Size {
		l.violatef("flow %d acked %d bytes beyond size %d", id, to, r.Size)
	}
	if !l.partial && to > r.recvPrefix {
		l.violatef("flow %d acked %d bytes but receiver prefix is %d", id, to, r.recvPrefix)
	}
	r.AckedMax = to
}

// OnFlowDone records the receiver seeing the flow's last in-order byte.
func (l *Ledger) OnFlowDone(id pkt.FlowID) {
	if l == nil {
		return
	}
	r := l.rec(id)
	if r.done {
		l.violatef("flow %d done twice", id)
	}
	r.done = true
	if r.Size > 0 && r.recvPrefix != r.Size {
		l.violatef("flow %d done with receiver prefix %d != size %d", id, r.recvPrefix, r.Size)
	}
}

// OnFlowAbort records the sender giving up on a flow.
func (l *Ledger) OnFlowAbort(id pkt.FlowID) {
	if l == nil {
		return
	}
	r := l.rec(id)
	if r.Aborted {
		l.violatef("flow %d aborted twice", id)
	}
	r.Aborted = true
	r.AbortUnacked = r.Size - r.AckedMax
}

// OnWREDDrop records a data frame dropped at switch shared-buffer admission.
func (l *Ledger) OnWREDDrop(id pkt.FlowID, size int) {
	if l == nil {
		return
	}
	r := l.rec(id)
	r.Fates[WRED].add(count{1, int64(size)})
}

// OnFaultDrop records a frame destroyed by the fault layer on a port:
// corrupt distinguishes Bernoulli corruption from admin-down discards
// (in-flight cut at arrival, mid-serialization cut, offered-while-down).
// Control and PFC frames carry no flow and land in controlFaultDrops.
func (l *Ledger) OnFaultDrop(p *pkt.Packet, corrupt bool) {
	if l == nil {
		return
	}
	if p.Kind != pkt.Data {
		l.controlFaultDrops++
		return
	}
	fate := Down
	if corrupt {
		fate = Corrupt
	}
	l.rec(p.Flow).Fates[fate].add(count{1, int64(p.Size)})
}

// OnFeedbackDrop records a feedback frame destroyed by a feedback-plane
// fault rule at a host's ingress (post port-Rx, pre consumer).
func (l *Ledger) OnFeedbackDrop(p *pkt.Packet) {
	if l == nil {
		return
	}
	l.feedbackDrops++
}

// AddLink registers a full-duplex link for per-link frame conservation.
// Both directions are checked: everything a transmitter counted must be at
// the peer, destroyed by the fault layer, on the wire, or mid-serialization.
func (l *Ledger) AddLink(name string, a, b *link.Port) {
	if l == nil || a == nil || b == nil {
		return
	}
	l.links = append(l.links, linkRec{name: name, a: a, b: b})
}

// Flow returns the ledger's record for a flow, or nil (for tests and
// diagnostics); like rec's, the pointer is valid until a new flow's record.
func (l *Ledger) Flow(id pkt.FlowID) *FlowRec {
	if l == nil {
		return nil
	}
	if i := uint(id - 1); i < uint(len(l.recs)) && l.recs[i].id != 0 { // false for id ≤ 0 too
		return &l.recs[i]
	}
	return nil
}

// Flows returns every record in creation order.
func (l *Ledger) Flows() []*FlowRec {
	if l == nil {
		return nil
	}
	out := make([]*FlowRec, 0, len(l.order))
	for _, id := range l.order {
		out = append(out, &l.recs[id-1])
	}
	return out
}

// dirProblem checks one transmit direction of a link; empty means clean.
// The equation holds at any instant, drained or not: TxPackets counts
// frames whose serialization began, MacTx counts MAC-injected PFC frames
// (which bypass TxPackets), and every such frame is exactly one of —
// received by the peer, destroyed by the fault layer at this transmitter,
// destroyed at the peer because the wire was cut mid-flight (the peer's
// CutDrops), in flight on the wire, or still mid-serialization.
func dirProblem(name string, tx, rx *link.Port) string {
	busy := int64(0)
	if tx.Busy() {
		busy = 1
	}
	sent := tx.TxPackets + tx.MacTx
	accounted := rx.RxPackets + tx.FaultDrops + rx.CutDrops + int64(tx.InFlightFrames()) + busy
	if sent != accounted {
		return fmt.Sprintf("link %s: tx %d + mac %d != rx %d + faultDrops %d + cutDrops %d + inFlight %d + busy %d (missing %d)",
			name, tx.TxPackets, tx.MacTx, rx.RxPackets, tx.FaultDrops, rx.CutDrops, tx.InFlightFrames(), busy, sent-accounted)
	}
	return ""
}

// Problems runs every end-of-run check and returns human-readable
// descriptions of the violations found (nil when the ledger is clean or
// detached). drained tells the ledger the packet pool has fully drained
// (pkt.Pool.Outstanding() == 0): only then may it insist that per-flow
// in-flight counts are zero — at an arbitrary deadline cut, frames parked
// in queues or on the wire are legitimate.
func (l *Ledger) Problems(drained bool) []string {
	if l == nil {
		return nil
	}
	var probs []string
	addf := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}
	for i := range l.recs {
		r := &l.recs[i]
		id := r.id
		if id == 0 {
			continue
		}
		pkts, bytes := r.unaccounted()
		if pkts < 0 || bytes < 0 {
			addf("flow %d: over-accounted (in-flight %d pkts / %d bytes is negative: a frame terminated twice)", id, pkts, bytes)
		}
		if drained && (pkts != 0 || bytes != 0) {
			addf("flow %d: %d pkts / %d bytes injected but never delivered or dropped (pool is drained)", id, pkts, bytes)
		}
		if r.done && r.Size > 0 && r.recvPrefix != r.Size {
			addf("flow %d: done but receiver prefix %d != size %d", id, r.recvPrefix, r.Size)
		}
		if r.AckedMax > r.recvPrefix {
			addf("flow %d: acked prefix %d beyond receiver prefix %d", id, r.AckedMax, r.recvPrefix)
		}
		if r.Size > 0 && r.injectEnd > r.Size {
			addf("flow %d: injected through byte %d beyond size %d", id, r.injectEnd, r.Size)
		}
		if r.started && !r.done && !r.Aborted && r.AckedMax > 0 && r.AckedMax == r.Size && r.Size > 0 {
			// Fully acked flows are finished at the sender; the receiver must
			// have seen them complete too (Done is receiver-side).
			addf("flow %d: fully acked but never marked done", id)
		}
	}
	for _, lk := range l.links {
		if p := dirProblem(lk.name+" ->", lk.a, lk.b); p != "" {
			probs = append(probs, p)
		}
		if p := dirProblem(lk.name+" <-", lk.b, lk.a); p != "" {
			probs = append(probs, p)
		}
	}
	return probs
}

// Summary renders the ledger's aggregate fate accounting on one line.
func (l *Ledger) Summary() string {
	if l == nil {
		return "audit: off"
	}
	var t FlowRec
	done, aborted := 0, 0
	var abortUnacked int64
	for i := range l.recs {
		r := &l.recs[i]
		if r.done {
			done++
		}
		if r.Aborted {
			aborted++
			abortUnacked += r.AbortUnacked
		}
		for f := range t.Fates {
			t.Fates[f].add(r.Fates[f])
		}
		t.dupPkts += r.dupPkts
		t.gapPkts += r.gapPkts
	}
	return fmt.Sprintf(
		"audit: flows=%d done=%d aborted=%d injected=%d pkts (%d B) delivered=%d wred=%d corrupt=%d admin_down=%d dup=%d gap=%d abort_unacked=%d B ctl_fault_drops=%d fb_drops=%d links=%d",
		len(l.order), done, aborted, t.Fates[Injected].Pkts, t.Fates[Injected].Bytes, t.Fates[Delivered].Pkts,
		t.Fates[WRED].Pkts, t.Fates[Corrupt].Pkts, t.Fates[Down].Pkts, t.dupPkts, t.gapPkts, abortUnacked,
		l.controlFaultDrops, l.feedbackDrops, len(l.links))
}
