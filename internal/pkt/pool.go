package pkt

// Pool is a free list of packets, a LIFO on the packets' own links. The
// simulator is single-goroutine per engine, so no locking is needed; each
// engine owns one Pool. Large-scale FCT runs move tens of millions of frames.
type Pool struct {
	free *Packet
	out  int64

	// StackCap is the capacity AddHop gives a packet's first INT stack: the
	// stamping switches on the longest path of the network this pool serves,
	// set by whoever built it. Zero (no network) keeps plain doubling.
	StackCap int

	// Diagnostics: packets allocated and reused, and the longest INT stack
	// and largest stack capacity ever returned — wider than StackCap means a
	// path outgrew it, never as deep means it is oversized.
	Allocs       int64
	Reuses       int64
	DeepestStack int
	WidestStack  int
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed, unlinked packet, reusing a freed one when available.
// The INT stack's backing array is retained across reuse.
func (pl *Pool) Get() *Packet {
	pl.out++
	p := pl.free
	if p == nil {
		pl.Allocs++
		return &Packet{stackCap: uint8(pl.StackCap)}
	}
	pl.free = p.next
	pl.Reuses++
	*p = Packet{Hops: p.Hops[:0], stackCap: uint8(pl.StackCap)}
	return p
}

// Put returns p to the free list. p must not be used afterwards; a second
// Put, or one of a packet still on a Queue, would give it two owners: panic.
func (pl *Pool) Put(p *Packet) {
	if p == nil {
		return
	}
	if p.linked {
		panic("pkt: Put of a packet that is already pooled or still on a queue")
	}
	pl.out--
	pl.DeepestStack = max(pl.DeepestStack, len(p.Hops))
	pl.WidestStack = max(pl.WidestStack, cap(p.Hops))
	p.linked = true
	p.next = pl.free
	pl.free = p
}

// Outstanding reports packets currently checked out (Get minus Put). At
// quiescence — every flow completed or aborted and every queue drained —
// any nonzero value is a leak.
func (pl *Pool) Outstanding() int64 { return pl.out }

// NewData builds a data packet.
func (pl *Pool) NewData(flow FlowID, src, dst NodeID, seq int64, size int) *Packet {
	p := pl.Get()
	p.Kind = Data
	p.Flow = flow
	p.Src = src
	p.Dst = dst
	p.Seq = seq
	p.Size = size
	p.Pri = ClassData
	p.ECT = true
	return p
}

// NewControl builds a control frame of the given kind addressed src → dst.
func (pl *Pool) NewControl(kind Kind, flow FlowID, src, dst NodeID) *Packet {
	p := pl.Get()
	p.Kind = kind
	p.Flow = flow
	p.Src = src
	p.Dst = dst
	p.Size = ControlSize
	p.Pri = ClassControl
	return p
}
