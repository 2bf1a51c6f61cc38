package fabric

import "mlcc/internal/pkt"

// FIFO is the default egress discipline: a strict-priority pair of FIFOs,
// control class first (congestion signals must not queue behind data).
type FIFO struct {
	q [pkt.NumClasses]pkt.Queue
}

// NewFIFO returns an empty FIFO discipline.
func NewFIFO() *FIFO { return &FIFO{} }

// Enqueue implements Discipline.
func (f *FIFO) Enqueue(p *pkt.Packet) { f.q[p.Pri].Push(p) }

// Next implements link.Source: strict priority, honouring pause state.
func (f *FIFO) Next(paused *[pkt.NumClasses]bool) *pkt.Packet {
	for class := pkt.NumClasses - 1; class >= 0; class-- {
		if paused[class] {
			continue
		}
		if p := f.q[class].Pop(); p != nil {
			return p
		}
	}
	return nil
}

// DataBytes implements Discipline.
func (f *FIFO) DataBytes() int64 { return f.q[pkt.ClassData].Bytes() }

// Drain implements Discipline: every queued frame of every class is handed
// to drop, which takes ownership.
func (f *FIFO) Drain(drop func(p *pkt.Packet)) {
	for class := range f.q {
		for p := f.q[class].Pop(); p != nil; p = f.q[class].Pop() {
			drop(p)
		}
	}
}
