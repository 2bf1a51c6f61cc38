package pkt

// Pool is a free list of packets, two LIFOs on the packets' own links: one of
// packets that hold an INT stack, one of bare packets. A frame holds a stack
// only while it carries records, so Get serves a bare packet first and AddHop
// gives a stackless one the stack of a free holder, else a spare one (a stack
// StripHops found no bare packet for), before allocating: a pool keeps its
// high-water of stacks, as of packets. Each engine owns one Pool, so no
// locking is needed. Large-scale FCT runs move tens of millions of frames.
type Pool struct {
	bare, held *Packet
	spare      [][]INTHop
	out        int64

	// StackCap is the capacity AddHop gives a packet's first INT stack: the
	// stamping switches on the longest path of the network this pool serves,
	// set by whoever built it. Zero (no network) keeps plain doubling.
	StackCap int

	// Diagnostics: packets allocated and reused, INT stacks AddHop
	// allocated, and the longest INT stack and largest stack capacity ever
	// returned — wider than StackCap means a path outgrew it, never as deep
	// means it is oversized.
	Allocs       int64
	reuses       int64
	Stacks       int64
	DeepestStack int
	WidestStack  int
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed, unlinked packet, reusing a freed one when available:
// a bare one first, else a stack holder, whose emptied stack it keeps.
func (pl *Pool) Get() *Packet {
	pl.out++
	p := pl.bare
	if p != nil {
		pl.bare = p.next
	} else if p = pl.held; p != nil {
		pl.held = p.next
	} else {
		pl.Allocs++
		return &Packet{}
	}
	pl.reuses++
	*p = Packet{Hops: p.Hops[:0]}
	return p
}

// Put returns p to the free list its stack capacity files it on. p must not
// be used afterwards; a second Put, or one of a packet still on a Queue,
// would give it two owners: panic.
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
	if cap(p.Hops) == 0 {
		p.next, pl.bare = pl.bare, p
	} else {
		p.next, pl.held = pl.held, p
	}
}

// AddHop stamps h onto p as Packet.AddHop does, but a stackless p first takes
// the stack of a free holder, which moves to the bare list, then a spare
// stack; only when neither is free does p allocate one, of StackCap records.
func (pl *Pool) AddHop(p *Packet, h INTHop) {
	if cap(p.Hops) == 0 {
		if q := pl.held; q != nil {
			pl.held = q.next
			p.Hops, q.Hops = q.Hops[:0], nil
			q.next, pl.bare = pl.bare, q
		} else if n := len(pl.spare); n > 0 {
			p.Hops = pl.spare[n-1]
			pl.spare = pl.spare[:n-1]
		} else {
			pl.Stacks++
			p.Hops = make([]INTHop, 0, max(pl.StackCap, 1))
		}
	}
	p.AddHop(h)
}

// StripHops is AddHop in reverse: p's INT stack moves onto a free bare
// packet, which files on the holder list, or with none free onto the spare
// list, so the next AddHop in this pool reuses it. p ends stackless, so a
// frame whose records nobody downstream reads crosses the long haul without
// one.
func (pl *Pool) StripHops(p *Packet) {
	if cap(p.Hops) == 0 {
		return
	}
	pl.DeepestStack = max(pl.DeepestStack, len(p.Hops))
	pl.WidestStack = max(pl.WidestStack, cap(p.Hops))
	if q := pl.bare; q != nil {
		pl.bare = q.next
		q.Hops = p.Hops[:0]
		q.next, pl.held = pl.held, q
	} else {
		pl.spare = append(pl.spare, p.Hops[:0])
	}
	p.Hops = nil
}

// Outstanding reports packets currently checked out (Get minus Put). At
// quiescence — every flow completed or aborted and every queue drained —
// any nonzero value is a leak.
func (pl *Pool) Outstanding() int64 { return pl.out }

// NewData builds a data packet.
func (pl *Pool) NewData(flow FlowID, src, dst NodeID, seq int64, size int) *Packet {
	p := pl.NewControl(Data, flow, src, dst)
	p.Seq, p.Size, p.ECT = seq, int32(size), true
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
	return p
}
