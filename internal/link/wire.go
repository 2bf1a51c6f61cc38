package link

import (
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// flight is one frame in flight on the wire. epoch is the transmitter's
// cutEpoch at launch; a mismatch at delivery means the wire was cut while
// the frame was on it.
type flight struct {
	at    sim.Time
	p     *pkt.Packet
	epoch uint32
}

// wire is a FIFO ring of frames in flight, sized by in-flight depth: the
// capacity is the smallest power of two ≥ the deepest it has been (slots are
// indexed by mask), it doubles only when a push finds the ring full, and it
// never shrinks. A flight carries wire metadata (arrival time, cut epoch)
// that does not belong in every pooled pkt.Packet, so the wire keeps its own
// 24-byte slot ring rather than widening Packet to reuse pkt.Ring. The zero
// value is ready to use.
type wire struct {
	buf  []flight
	head int
	n    int
}

func (w *wire) push(f flight) {
	if w.n == len(w.buf) {
		w.grow()
	}
	w.buf[(w.head+w.n)&(len(w.buf)-1)] = f
	w.n++
}

// pop removes and returns the head, clearing its slot so the ring never
// retains a delivered packet. The ring must not be empty.
func (w *wire) pop() flight {
	f := w.buf[w.head]
	w.buf[w.head] = flight{}
	w.head = (w.head + 1) & (len(w.buf) - 1)
	w.n--
	return f
}

// front and back return the oldest and newest frame; the ring must not be
// empty.
func (w *wire) front() *flight { return &w.buf[w.head] }
func (w *wire) back() *flight  { return &w.buf[(w.head+w.n-1)&(len(w.buf)-1)] }

func (w *wire) grow() {
	nb := make([]flight, max(1, 2*len(w.buf)))
	k := copy(nb, w.buf[w.head:])
	copy(nb[k:], w.buf[:w.head])
	w.buf, w.head = nb, 0
}
