package pkt

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestPacketLayout pins the two sizes host memory per in-flight frame is
// made of. Both sit exactly on a Go size class, so one more byte costs the
// whole step to the next class for every packet or hop record alive.
func TestPacketLayout(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 96 {
		t.Errorf("Packet is %d bytes, want 96: no pad bytes are left, so one more byte costs every pooled packet the 16 B step back to the 112 B size class; narrow or reorder the fields", got)
	}
	if got := unsafe.Sizeof(INTHop{}); got != 40 {
		t.Errorf("INTHop is %d bytes, want 40: a three-hop stack then leaves the 128 B size class for 144 B, a six-hop stack 240 B for 256 B", got)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestPoolDoublePutPanics: a second Put used to hand one packet to the next
// two Gets; now it is caught where it happens.
func TestPoolDoublePutPanics(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	pl.Put(p)
	mustPanic(t, "second Put", func() { pl.Put(p) })
	if pl.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after the refused Put", pl.Outstanding())
	}
	if a, b := pl.Get(), pl.Get(); a == b {
		t.Fatal("one packet handed out twice")
	}

	var q Queue
	p = pl.Get()
	q.Push(p)
	mustPanic(t, "Put of a queued packet", func() { pl.Put(p) })
	if q.Pop() != p || p.next != nil {
		t.Fatal("the refused Put disturbed the queue")
	}
	pl.Put(p)
}

func TestQueuePushPooledPanics(t *testing.T) {
	pl := NewPool()
	var q, other Queue
	p := pl.Get()
	pl.Put(p)
	mustPanic(t, "Push of a pooled packet", func() { q.Push(p) })

	a, b := pl.Get(), pl.Get()
	q.Push(a)
	q.Push(b)
	mustPanic(t, "Push of a linked packet", func() { other.Push(a) })
	mustPanic(t, "Push of another queue's tail", func() { other.Push(b) })
	mustPanic(t, "second Push onto the same queue", func() { q.Push(b) })
	if q.Len() != 2 || other.Len() != 0 || q.Pop() != a || q.Pop() != b {
		t.Fatal("the refused pushes disturbed the queues")
	}
}

// TestStackCapacity: a pool that knows its network's stamping path gives
// every stack that capacity in one allocation, lazily; without one, or past
// it, AddHop falls back to doubling. The pool files free packets on two
// lists, so a stack moves to wherever records are stamped next.
func TestStackCapacity(t *testing.T) {
	pl := NewPool()
	pl.StackCap = 3
	p := pl.Get()
	if p.Hops != nil {
		t.Fatal("Get attached a stack; AddHop must stay the only allocator")
	}
	for i := 1; i <= 3; i++ {
		pl.AddHop(p, INTHop{Node: NodeID(i)})
		if cap(p.Hops) != 3 {
			t.Fatalf("capacity %d after %d hops, want 3", cap(p.Hops), i)
		}
	}
	if n := testing.AllocsPerRun(10, func() { p.ClearHops(); p.AddHop(INTHop{}); p.AddHop(INTHop{}); p.AddHop(INTHop{}) }); n != 0 {
		t.Fatalf("refilling an allocated stack allocated %v times", n)
	}
	p.AddHop(INTHop{Node: 4})
	if len(p.Hops) != 4 || cap(p.Hops) != 6 || p.Hops[0].Node != 0 || p.Hops[3].Node != 4 {
		t.Fatalf("outgrown stack: len %d cap %d %v", len(p.Hops), cap(p.Hops), p.Hops)
	}
	pl.Put(p)
	if pl.DeepestStack != 4 || pl.WidestStack != 6 {
		t.Fatalf("pool saw deepest %d widest %d, want 4 and 6", pl.DeepestStack, pl.WidestStack)
	}

	bare := &Packet{}
	for i, want := range []int{1, 2, 4, 4, 8} {
		bare.AddHop(INTHop{})
		if cap(bare.Hops) != want {
			t.Fatalf("pool-less packet: capacity %d after %d hops, want %d", cap(bare.Hops), i+1, want)
		}
	}

	// Two free lists. Put files by capacity; Get serves a bare packet first
	// and a holder, its stack emptied, only when no bare one is free.
	if pl.held != p || pl.bare != nil {
		t.Fatal("Put did not file a stack holder on the holder list")
	}
	if got := pl.Get(); got != p || len(p.Hops) != 0 || cap(p.Hops) != 6 {
		t.Fatalf("with only a holder free, Get served %p (len %d cap %d), want the holder %p with its emptied stack", got, len(got.Hops), cap(got.Hops), p)
	}
	q := pl.Get()
	pl.Put(q)
	pl.Put(p)
	if pl.bare != q || pl.held != p {
		t.Fatal("Put did not file the bare packet and the holder on separate lists")
	}
	if got := pl.Get(); got != q {
		t.Fatal("Get served the holder while a bare packet was free")
	}

	// Pool.AddHop gives a stackless packet a free holder's stack and files
	// the holder as bare; with no holder free it allocates one.
	stacks := pl.Stacks
	pl.AddHop(q, INTHop{Node: 7})
	if len(q.Hops) != 1 || cap(q.Hops) != 6 || q.Hops[0].Node != 7 || pl.Stacks != stacks {
		t.Fatalf("Pool.AddHop: len %d cap %d %v, %d stacks allocated; want the free holder's stack", len(q.Hops), cap(q.Hops), q.Hops, pl.Stacks-stacks)
	}
	if pl.held != nil || pl.bare != p || p.Hops != nil {
		t.Fatal("the holder that gave its stack away was not moved to the bare list")
	}
	p = pl.Get()
	pl.AddHop(p, INTHop{})
	if cap(p.Hops) != 3 || pl.Stacks != stacks+1 {
		t.Fatalf("Pool.AddHop with no holder free: capacity %d, %d stacks allocated; want 3 and 1", cap(p.Hops), pl.Stacks-stacks)
	}

	// A double Put panics on either list.
	r := pl.Get()
	pl.Put(r)
	pl.Put(p)
	if pl.bare != r || pl.held != p {
		t.Fatal("Put misfiled a packet")
	}
	mustPanic(t, "second Put of a bare packet", func() { pl.Put(r) })
	mustPanic(t, "second Put of a holder", func() { pl.Put(p) })

	// StripHops is AddHop in reverse: the stack moves onto a free bare
	// packet, which files on the holder list; with none free it files on the
	// spare list; a stackless p is untouched.
	pl = NewPool()
	a, b := pl.Get(), pl.Get()
	pl.AddHop(a, INTHop{Node: 8})
	pl.Put(b) // bare: the only free packet
	stacks = pl.Stacks
	stack := a.Hops
	pl.StripHops(a)
	if a.Hops != nil || pl.bare != nil || pl.held != b || len(b.Hops) != 0 || cap(b.Hops) != cap(stack) || &b.Hops[:1][0] != &stack[0] {
		t.Fatalf("StripHops: p kept %v, free bare %p, holder %p (len %d cap %d); want the stack on the free bare packet, now a holder", a.Hops, pl.bare, pl.held, len(b.Hops), cap(b.Hops))
	}
	if pl.Stacks != stacks || pl.Outstanding() != 1 {
		t.Fatalf("StripHops allocated %d stacks and left %d packets out, want 0 and 1", pl.Stacks-stacks, pl.Outstanding())
	}
	pl.AddHop(a, INTHop{Node: 9}) // takes the stack back; b files as bare
	pl.Get()                      // and is served again: no bare packet is free
	pl.StripHops(a)
	if a.Hops != nil || pl.held != nil || pl.bare != nil || len(pl.spare) != 1 || &pl.spare[0][:1][0] != &stack[0] || pl.Stacks != stacks {
		t.Fatalf("StripHops with no bare packet free: p kept %v, holder list %p, %d spare, %d stacks allocated; want p bare and the stack spare", a.Hops, pl.held, len(pl.spare), pl.Stacks-stacks)
	}
	pl.StripHops(a)
	if a.Hops != nil || pl.held != nil || pl.bare != nil || len(pl.spare) != 1 {
		t.Fatal("StripHops of a stackless packet touched the pool")
	}
	pl.AddHop(a, INTHop{Node: 10})
	if len(a.Hops) != 1 || a.Hops[0].Node != 10 || &a.Hops[0] != &stack[0] || len(pl.spare) != 0 || pl.Stacks != stacks {
		t.Fatalf("AddHop after a spare strip: %v, %d spare, %d stacks allocated; want the spare stack reused", a.Hops, len(pl.spare), pl.Stacks-stacks)
	}

	// AddHop draws a holder's stack first, then a spare one, and allocates
	// only when both are gone.
	pl = NewPool()
	pl.StackCap = 2
	h, sp := pl.Get(), pl.Get()
	fresh := []*Packet{pl.Get(), pl.Get(), pl.Get()}
	pl.AddHop(h, INTHop{})
	pl.AddHop(sp, INTHop{})
	held, spare := h.Hops, sp.Hops
	pl.StripHops(sp) // no bare packet free: spare
	pl.Put(h)        // a holder
	stacks = pl.Stacks
	for i, want := range [][]INTHop{held, spare, nil} {
		p := fresh[i]
		pl.AddHop(p, INTHop{Node: NodeID(i)})
		if want == nil {
			if pl.Stacks != stacks+1 {
				t.Fatalf("AddHop %d: %d stacks allocated, want 1 once holder and spare are used", i, pl.Stacks-stacks)
			}
		} else if &p.Hops[0] != &want[:1][0] || pl.Stacks != stacks {
			t.Fatalf("AddHop %d took the wrong stack or allocated (%d); want holder, then spare, then allocate", i, pl.Stacks-stacks)
		}
	}
}

// queueModel drives two Queues and a Pool with an op string against plain
// slices. Every op checks order, Len, Bytes, Peek and Back on both queues,
// and that whatever Pop or Get returns is unlinked.
func queueModel(t *testing.T, ops []byte) {
	pl := NewPool()
	var q [2]Queue
	var model [2][]*Packet
	var loose []*Packet // checked out, on no queue
	var seq int64

	check := func() {
		t.Helper()
		for i := range q {
			var bytes int64
			for _, p := range model[i] {
				bytes += int64(p.Size)
			}
			if q[i].Len() != len(model[i]) || q[i].Bytes() != bytes {
				t.Fatalf("queue %d: len %d bytes %d, model %d and %d", i, q[i].Len(), q[i].Bytes(), len(model[i]), bytes)
			}
			var head, back *Packet
			if n := len(model[i]); n > 0 {
				head, back = model[i][0], model[i][n-1]
			}
			if q[i].Peek() != head || q[i].Back() != back {
				t.Fatalf("queue %d: Peek/Back %v/%v, model %v/%v", i, q[i].Peek(), q[i].Back(), head, back)
			}
			if back != nil && back.next != nil {
				t.Fatalf("queue %d: tail links onward to %v", i, back.next)
			}
		}
		if int(pl.Outstanding()) != len(loose)+len(model[0])+len(model[1]) {
			t.Fatalf("pool has %d outstanding, model %d", pl.Outstanding(), len(loose)+len(model[0])+len(model[1]))
		}
	}
	pop := func(i int) *Packet {
		t.Helper()
		p := q[i].Pop()
		if len(model[i]) == 0 {
			if p != nil {
				t.Fatalf("queue %d: Pop on empty returned %v", i, p)
			}
			return nil
		}
		if p != model[i][0] {
			t.Fatalf("queue %d: popped %v, model head %v", i, p, model[i][0])
		}
		if p.next != nil || p.linked {
			t.Fatalf("queue %d: popped packet still linked (next %v, linked %v)", i, p.next, p.linked)
		}
		model[i] = model[i][1:]
		return p
	}

	for _, op := range ops {
		i := int(op>>3) & 1
		switch op & 7 {
		case 0, 1: // Get and push
			p := pl.Get()
			if p.next != nil || p.linked || p.Seq != 0 || p.Size != 0 {
				t.Fatalf("Get returned a dirty packet: %+v", p)
			}
			seq++
			p.Seq, p.Size = seq, 1+int32(op>>4)
			q[i].Push(p)
			model[i] = append(model[i], p)
		case 2: // Get and hold
			loose = append(loose, pl.Get())
		case 3: // push a held packet
			if n := len(loose); n > 0 {
				p := loose[n-1]
				loose = loose[:n-1]
				p.Size = 1 + int32(op>>4)
				q[i].Push(p)
				model[i] = append(model[i], p)
			}
		case 4: // pop and free
			pl.Put(pop(i))
		case 5: // pop and hold
			if p := pop(i); p != nil {
				loose = append(loose, p)
			}
		case 6: // pop, then push onto the other queue (a barrier flush)
			if p := pop(i); p != nil {
				q[1-i].Push(p)
				model[1-i] = append(model[1-i], p)
			}
		case 7: // free a held packet
			if n := len(loose); n > 0 {
				pl.Put(loose[n-1])
				loose = loose[:n-1]
			}
		}
		check()
	}
	for i := range q {
		for len(model[i]) > 0 {
			pl.Put(pop(i))
		}
	}
	check()
}

func TestQueueAgainstModel(t *testing.T) {
	for _, c := range []struct {
		name string
		seed int64
		ops  int
		bias byte // ops below bias are forced to "Get and push"
	}{
		{"climb", 1, 4000, 96},
		{"sawtooth", 2, 20000, 16},
		{"drain-heavy", 3, 20000, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			ops := make([]byte, c.ops)
			rng.Read(ops)
			for i, op := range ops {
				if op < c.bias {
					ops[i] = op &^ 7
				}
			}
			queueModel(t, ops)
		})
	}
}

// FuzzQueue lets the fuzzer pick the op string. The seeds below cover each
// op and the empty-queue edges; testdata/fuzz/FuzzQueue adds longer streams.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x08, 0x04, 0x0c, 0x04})             // push both, drain both, pop empty
	f.Add([]byte{0x00, 0x10, 0x20, 0x06, 0x06, 0x0c, 0x0c}) // flush 0 → 1 twice, then drain 1
	f.Add([]byte{0x02, 0x02, 0x03, 0x0b, 0x05, 0x07, 0x07}) // hold, push held, pop-hold, free
	f.Add([]byte{0x00, 0x04, 0x00, 0x04, 0x00, 0x04})       // reuse one packet through the pool
	f.Fuzz(func(t *testing.T, ops []byte) { queueModel(t, ops) })
}
