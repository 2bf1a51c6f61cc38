package fabric

import "mlcc/internal/pkt"

// fifo is the default egress discipline: a strict-priority pair of FIFOs,
// control class first (congestion signals must not queue behind data).
type fifo struct {
	q [pkt.NumClasses]pkt.Queue
}

// newFIFO returns an empty FIFO discipline.
func newFIFO() *fifo { return &fifo{} }

// Enqueue implements Discipline.
func (f *fifo) Enqueue(p *pkt.Packet) { f.q[p.Kind.Pri()].Push(p) }

// Next implements link.Source: strict priority, honouring pause state.
func (f *fifo) Next(paused *[pkt.NumClasses]bool) *pkt.Packet {
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
func (f *fifo) DataBytes() int64 { return f.q[pkt.ClassData].Bytes() }

// Drain implements Discipline: every queued frame of every class is handed
// to drop, which takes ownership.
func (f *fifo) Drain(drop func(p *pkt.Packet)) {
	for class := range f.q {
		for p := f.q[class].Pop(); p != nil; p = f.q[class].Pop() {
			drop(p)
		}
	}
}
