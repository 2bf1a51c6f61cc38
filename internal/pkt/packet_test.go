package pkt

import (
	"testing"
	"testing/quick"

	"mlcc/internal/sim"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Data: "DATA", Ack: "ACK", CNP: "CNP", SwitchINT: "SINT",
		Pause: "PAUSE", Resume: "RESUME", Kind(99): "Kind(99)",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, s)
		}
	}
}

func TestAddHopBounded(t *testing.T) {
	p := &Packet{}
	for i := 0; i < MaxINTHops+5; i++ {
		p.AddHop(INTHop{Node: NodeID(i)})
	}
	if len(p.Hops) != MaxINTHops {
		t.Fatalf("len(Hops) = %d, want %d", len(p.Hops), MaxINTHops)
	}
	p.ClearHops()
	if len(p.Hops) != 0 {
		t.Fatalf("ClearHops left %d hops", len(p.Hops))
	}
	if cap(p.Hops) == 0 {
		t.Fatal("ClearHops released storage")
	}
}

func TestPoolReuseZeroes(t *testing.T) {
	pl := NewPool()
	p := pl.NewData(7, 1, 2, 1000, DefaultMTU)
	p.CE = true
	p.AddHop(INTHop{Node: 3, QLen: 55})
	p.Rate = 5 * sim.Gbps
	pl.Put(p)

	q := pl.Get()
	if q != p {
		t.Fatal("pool did not reuse the freed packet")
	}
	if q.CE || q.Rate != 0 || q.Flow != 0 || q.Seq != 0 || len(q.Hops) != 0 {
		t.Fatalf("reused packet not zeroed: %+v", q)
	}
	if pl.reuses != 1 || pl.Allocs != 1 {
		t.Fatalf("counters: allocs=%d reuses=%d", pl.Allocs, pl.reuses)
	}
}

func TestPoolPutNil(t *testing.T) {
	pl := NewPool()
	pl.Put(nil) // must not panic
	if got := pl.Get(); got == nil {
		t.Fatal("Get returned nil")
	}
}

func TestNewControl(t *testing.T) {
	pl := NewPool()
	p := pl.NewControl(CNP, 3, 9, 4)
	if p.Kind != CNP || p.Size != ControlSize {
		t.Fatalf("bad control packet: %+v", p)
	}
	for _, k := range []Kind{Ack, CNP, SwitchINT, Pause, Resume} {
		if k.Pri() != ClassControl {
			t.Errorf("%v not in the control class", k)
		}
	}
}

func TestNewData(t *testing.T) {
	pl := NewPool()
	p := pl.NewData(3, 9, 4, 2000, DefaultMTU)
	if p.Kind != Data || p.Kind.Pri() != ClassData || !p.ECT || p.Seq != 2000 {
		t.Fatalf("bad data packet: %+v", p)
	}
}

// Property: any get/put interleaving keeps returned packets zeroed.
func TestPoolProperty(t *testing.T) {
	f := func(ops []bool) bool {
		pl := NewPool()
		var live []*Packet
		for _, get := range ops {
			if get || len(live) == 0 {
				p := pl.Get()
				if p.Flow != 0 || p.Seq != 0 || len(p.Hops) != 0 || p.CE {
					return false
				}
				p.Flow = 42
				p.Seq = 99
				p.CE = true
				p.AddHop(INTHop{Node: 1})
				live = append(live, p)
			} else {
				pl.Put(live[len(live)-1])
				live = live[:len(live)-1]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
