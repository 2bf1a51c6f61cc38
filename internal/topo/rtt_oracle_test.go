package topo

import (
	"testing"

	"mlcc/internal/cc"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// firstAck wraps a sender and records the RTT of the flow's first ACK: its
// arrival time less the send time the data frame stamped into EchoTS.
type firstAck struct {
	cc.Sender
	rtt *sim.Time
}

func (s firstAck) OnAck(now sim.Time, ack *pkt.Packet) {
	if *s.rtt == 0 {
		*s.rtt = now - ack.EchoTS
	}
	s.Sender.OnAck(now, ack)
}

func (s firstAck) Close() {
	if c, ok := s.Sender.(interface{ Close() }); ok {
		c.Close()
	}
}

// TestBaseRTTIsTheRTTAPacketSees is BaseRTT's oracle: on an idle network,
// a 1-MTU flow's first ACK comes back exactly BaseRTT(src, dst) after its
// data frame left, for every host pair of three shapes — the two-DC fabric,
// the dumbbell and a spineless fabric with two leaves per DC. The flows run
// one at a time on one network, each alone on it. The one term that differs
// is named: BaseRTT charges every hop's returning control frame at
// FabricRate, while the two host hops really serialize it at HostRate.
func TestBaseRTTIsTheRTTAPacketSees(t *testing.T) {
	shapes := []struct {
		name  string
		build func(Params) *Network
		shape func(*Params)
	}{
		{"twodc", TwoDC, nil},
		{"dumbbell", Dumbbell, nil},
		{"fabric0x2", TwoDC, func(p *Params) { p.SpinesPerDC, p.LeavesPerDC = 0, 2 }},
	}
	for _, sh := range shapes {
		for _, alg := range Algorithms() {
			t.Run(sh.name+"/"+alg, func(t *testing.T) {
				p := testParams(alg)
				if sh.shape != nil {
					sh.shape(&p)
				}
				rtts := map[pkt.FlowID]*sim.Time{}
				bundle := p.Alg
				p.Alg = func(eng *sim.Engine) cc.Algorithm {
					a := bundle(eng)
					newSender := a.NewSender
					a.NewSender = func(f cc.FlowInfo) cc.Sender {
						rtts[f.ID] = new(sim.Time)
						return firstAck{newSender(f), rtts[f.ID]}
					}
					return a
				}
				n := sh.build(p)
				// ctlQuirk: the control frame's two host hops at HostRate
				// rather than at FabricRate.
				ctlQuirk := 2 * (sim.TxTime(pkt.ControlSize, p.HostRate) - sim.TxTime(pkt.ControlSize, p.FabricRate))
				gap := n.CrossRTT() + sim.Millisecond
				type pair struct {
					src, dst int
					f        pkt.FlowID
				}
				var pairs []pair
				for src := 0; src < n.NumHosts(); src++ {
					for dst := 0; dst < n.NumHosts(); dst++ {
						if src != dst {
							f := n.AddFlow(src, dst, int64(p.MTU), sim.Time(len(pairs))*gap)
							pairs = append(pairs, pair{src, dst, f.Info.ID})
						}
					}
				}
				n.Run(sim.Time(len(pairs)+1) * gap)
				bad := 0
				for _, pr := range pairs {
					base := n.BaseRTT(pr.src, pr.dst)
					if got := *rtts[pr.f]; got != base+ctlQuirk {
						if bad++; bad <= 5 {
							t.Errorf("%d->%d: first ACK after %v, want BaseRTT %v + control-frame term %v",
								pr.src, pr.dst, got, base, ctlQuirk)
						}
					}
				}
				if bad > 0 {
					t.Errorf("%d of %d pairs see another RTT than BaseRTT's", bad, len(pairs))
				}
			})
		}
	}
}
