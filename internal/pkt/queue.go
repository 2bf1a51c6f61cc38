package pkt

// Queue is a FIFO of packets with O(1) push/pop and byte accounting: an
// intrusive singly linked list on the packets' own links, so it holds any
// depth — a switch queue, a bandwidth-delay product of frames on a long-haul
// wire — without storage of its own. A packet is on at most one Queue (or
// the Pool's free list) at a time; Push panics rather than knot two lists.
// The zero value is ready to use.
type Queue struct {
	head, tail *Packet
	n          int
	bytes      int64
}

// Push appends p to the tail. p must be neither pooled nor on a Queue.
func (q *Queue) Push(p *Packet) {
	if p.linked {
		panic("pkt: Push of a packet that is pooled or still on a queue")
	}
	p.linked = true
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.n++
	q.bytes += int64(p.Size)
}

// Pop removes and returns the head, unlinked, or nil when empty.
func (q *Queue) Pop() *Packet {
	p := q.head
	if p == nil {
		return nil
	}
	q.head = p.next
	if q.head == nil {
		q.tail = nil
	}
	p.next = nil
	p.linked = false
	q.n--
	q.bytes -= int64(p.Size)
	return p
}

// Peek returns the head without removing it, or nil when empty.
func (q *Queue) Peek() *Packet { return q.head }

// Back returns the most recently pushed packet, or nil when empty.
func (q *Queue) Back() *Packet { return q.tail }

// Len reports the number of queued packets.
func (q *Queue) Len() int { return q.n }

// Bytes reports the queued bytes.
func (q *Queue) Bytes() int64 { return q.bytes }
