package dci

import (
	"mlcc/internal/core"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// pfqFlow is one dynamically allocated per-flow queue at the receiver-side
// DCI switch.
type pfqFlow struct {
	id   pkt.FlowID
	disc *PFQDisc

	q        pkt.Queue
	rate     sim.Rate // R_credit: dequeue rate set by the receiver
	nextTime sim.Time // pacing: earliest next dequeue
	cd       uint32   // C_D: credit stamped into outgoing data packets
	txBytes  int64    // cumulative bytes dequeued (INT TxBytes field)
	dqm      *core.DQM
	closed   bool // flow finished; remove once drained
}

// PFQDisc is the egress discipline of a DC-facing DCI port under MLCC:
// strict-priority control FIFO plus a set of rate-paced per-flow queues
// served round-robin among flows whose pacing allows a dequeue now.
type PFQDisc struct {
	sw   *Switch
	port int

	ctl   pkt.Queue
	flows []*pfqFlow
	rr    int

	dataBytes int64

	wakeEv sim.Timer
	wakeAt sim.Time
	kick   func() // bound port.Kick, so pacing wake-ups don't allocate
}

// Enqueue implements fabric.Discipline: control frames go to the priority
// FIFO; data packets are pushed into their flow's PFQ, allocating one (at
// the initial rate) on first sight — the paper's dynamic PFQ allocation.
func (d *PFQDisc) Enqueue(p *pkt.Packet) {
	if p.Kind.Pri() == pkt.ClassControl {
		d.ctl.Push(p)
		return
	}
	f := d.sw.flowFor(p.Flow, d)
	f.q.Push(p)
	d.dataBytes += int64(p.Size)
}

// DataBytes implements fabric.Discipline.
func (d *PFQDisc) DataBytes() int64 { return d.dataBytes }

// Drain implements fabric.Discipline: the control FIFO and every per-flow
// queue empty into drop, the per-flow queues deallocate (switch-level PFQ
// registrations included), and the pacing wake-up cancels — after a switch
// failure the discipline is indistinguishable from a freshly built one.
func (d *PFQDisc) Drain(drop func(p *pkt.Packet)) {
	for p := d.ctl.Pop(); p != nil; p = d.ctl.Pop() {
		drop(p)
	}
	for _, f := range d.flows {
		for p := f.q.Pop(); p != nil; p = f.q.Pop() {
			drop(p)
		}
		d.sw.release(f)
	}
	d.flows = d.flows[:0]
	d.rr = 0
	d.dataBytes = 0
	d.wakeEv.Cancel()
	d.wakeAt = 0
}

// Next implements link.Source.
func (d *PFQDisc) Next(paused *[pkt.NumClasses]bool) *pkt.Packet {
	if !paused[pkt.ClassControl] {
		if p := d.ctl.Pop(); p != nil {
			return p
		}
	}
	if paused[pkt.ClassData] || len(d.flows) == 0 {
		return nil
	}
	now := d.sw.Eng.Now()
	n := len(d.flows)
	var earliest sim.Time = -1
	for i := 0; i < n; i++ {
		idx := (d.rr + i) % n
		f := d.flows[idx]
		if f.q.Len() == 0 {
			continue
		}
		if f.nextTime <= now {
			d.rr = (idx + 1) % n
			return d.dequeue(f, now)
		}
		if earliest < 0 || f.nextTime < earliest {
			earliest = f.nextTime
		}
	}
	if earliest >= 0 {
		d.scheduleWake(earliest)
	}
	return nil
}

// dequeue pops one packet from f, applies pacing at R_credit, stamps the
// credit C_D and a fresh DCI INT record ("erases and reinserts the INT
// information"), and advances the flow's DQM token bucket.
func (d *PFQDisc) dequeue(f *pfqFlow, now sim.Time) *pkt.Packet {
	p := f.q.Pop()
	d.dataBytes -= int64(p.Size)
	base := f.nextTime
	if now > base {
		base = now
	}
	f.nextTime = base + sim.TxTime(int(p.Size), f.rate)

	p.CD = f.cd
	p.ClearHops()
	d.sw.Pool.AddHop(p, pkt.INTHop{
		Node:    d.sw.ID(),
		QLen:    f.q.Bytes(),
		TxBytes: f.txBytes,
		TS:      now,
		Band:    d.portRate(),
	})
	f.txBytes += int64(p.Size)
	f.dqm.OnPacketOut()

	if f.closed && f.q.Len() == 0 {
		d.maybeRemove(f)
	}
	return p
}

// portRate returns the line rate of the owning port.
func (d *PFQDisc) portRate() sim.Rate { return d.sw.Port(d.port).Rate }

// kickSoon prompts the port after a rate update: a higher R_credit may make
// a previously ineligible flow eligible immediately.
func (d *PFQDisc) kickSoon() { d.sw.Port(d.port).Kick() }

// scheduleWake arms (or tightens) the single pending wake-up for pacing.
func (d *PFQDisc) scheduleWake(at sim.Time) {
	now := d.sw.Eng.Now()
	if d.wakeEv.Active() && d.wakeAt <= at && d.wakeAt > now {
		return
	}
	d.wakeEv.Cancel()
	d.wakeAt = at
	if d.kick == nil {
		d.kick = d.sw.Port(d.port).Kick
	}
	d.wakeEv = d.sw.Eng.At(at, d.kick)
}

// maybeRemove garbage-collects a finished flow once its queue drained.
func (d *PFQDisc) maybeRemove(f *pfqFlow) {
	if !f.closed || f.q.Len() != 0 {
		return
	}
	for i, x := range d.flows {
		if x == f {
			d.flows = append(d.flows[:i], d.flows[i+1:]...)
			break
		}
	}
	if d.rr >= len(d.flows) {
		d.rr = 0
	}
	d.sw.release(f)
}
