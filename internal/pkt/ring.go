package pkt

// Ring is a growable FIFO of packets with O(1) amortized push/pop and byte
// accounting. Capacities are powers of two (16·2^k), so slots are indexed by
// mask. The zero value is ready to use.
type Ring struct {
	buf   []*Packet
	head  int
	n     int
	bytes int64
}

// Push appends p to the tail.
func (r *Ring) Push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
	r.bytes += int64(p.Size)
}

// Pop removes and returns the head, or nil when empty.
func (r *Ring) Pop() *Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	r.bytes -= int64(p.Size)
	return p
}

// Peek returns the head without removing it, or nil when empty.
func (r *Ring) Peek() *Packet {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.head]
}

// Len reports the number of queued packets.
func (r *Ring) Len() int { return r.n }

// Bytes reports the queued bytes.
func (r *Ring) Bytes() int64 { return r.bytes }

func (r *Ring) grow() {
	nb := make([]*Packet, max(16, len(r.buf)*2))
	k := copy(nb, r.buf[r.head:])
	copy(nb[k:], r.buf[:r.head])
	r.buf, r.head = nb, 0
}
