package fabric

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlcc/internal/pkt"
)

func TestRingFIFOOrder(t *testing.T) {
	var r pkt.Queue
	for i := 0; i < 100; i++ {
		r.Push(&pkt.Packet{Seq: int64(i), Size: 10})
	}
	if r.Len() != 100 || r.Bytes() != 1000 {
		t.Fatalf("len=%d bytes=%d", r.Len(), r.Bytes())
	}
	for i := 0; i < 100; i++ {
		p := r.Pop()
		if p.Seq != int64(i) {
			t.Fatalf("pop %d got seq %d", i, p.Seq)
		}
	}
	if r.Pop() != nil || r.Len() != 0 || r.Bytes() != 0 {
		t.Fatal("ring not empty after drain")
	}
}

func TestRingInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r pkt.Queue
	next, expect := int64(0), int64(0)
	for op := 0; op < 10000; op++ {
		if rng.Intn(3) != 0 {
			r.Push(&pkt.Packet{Seq: next, Size: 1})
			next++
		} else if p := r.Pop(); p != nil {
			if p.Seq != expect {
				t.Fatalf("expected %d got %d", expect, p.Seq)
			}
			expect++
		}
	}
	if r.Bytes() != int64(r.Len()) {
		t.Fatalf("bytes %d != len %d", r.Bytes(), r.Len())
	}
}

func TestFIFOControlFirst(t *testing.T) {
	f := newFIFO()
	f.Enqueue(&pkt.Packet{Kind: pkt.Data, Size: 1000})
	f.Enqueue(&pkt.Packet{Kind: pkt.Ack, Size: 64})
	var paused [pkt.NumClasses]bool
	if p := f.Next(&paused); p.Kind != pkt.Ack {
		t.Fatalf("first = %v", p.Kind)
	}
	if p := f.Next(&paused); p.Kind != pkt.Data {
		t.Fatalf("second = %v", p.Kind)
	}
	if f.Next(&paused) != nil {
		t.Fatal("expected empty")
	}
}

func TestFIFOPauseHonoured(t *testing.T) {
	f := newFIFO()
	f.Enqueue(&pkt.Packet{Kind: pkt.Data, Size: 1000})
	paused := [pkt.NumClasses]bool{pkt.ClassData: true}
	if f.Next(&paused) != nil {
		t.Fatal("paused data dequeued")
	}
	if f.DataBytes() != 1000 {
		t.Fatalf("DataBytes = %d", f.DataBytes())
	}
	paused[pkt.ClassData] = false
	if f.Next(&paused) == nil {
		t.Fatal("unpaused data not dequeued")
	}
}

// Property: FIFO preserves per-class order and byte accounting for any
// push/pop interleaving.
func TestFIFOProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		q := newFIFO()
		var paused [pkt.NumClasses]bool
		var wantData, wantCtl []int64
		seq := int64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				q.Enqueue(&pkt.Packet{Kind: pkt.Data, Size: 100, Seq: seq})
				wantData = append(wantData, seq)
			case 1:
				q.Enqueue(&pkt.Packet{Kind: pkt.Ack, Size: 64, Seq: seq})
				wantCtl = append(wantCtl, seq)
			case 2:
				p := q.Next(&paused)
				if p == nil {
					if len(wantData)+len(wantCtl) != 0 {
						return false
					}
					continue
				}
				if p.Kind.Pri() == pkt.ClassControl {
					if len(wantCtl) == 0 || p.Seq != wantCtl[0] {
						return false
					}
					wantCtl = wantCtl[1:]
				} else {
					// control must be drained first
					if len(wantCtl) != 0 || len(wantData) == 0 || p.Seq != wantData[0] {
						return false
					}
					wantData = wantData[1:]
				}
			}
			seq++
		}
		return q.DataBytes() == int64(100*len(wantData))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
