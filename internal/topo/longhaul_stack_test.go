package topo

import (
	"testing"

	"mlcc/internal/link"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// TestClearedFramesCrossTheLongHaulBare watches every data frame entering a
// DCI's long-haul wire on the elephants shape: four cross-DC flows beside
// four intra-DC ones on the default two-DC fabric. Under MLCC the
// sender-side DCI has moved each frame's records onto a Switch-INT frame,
// so none may still hold a stack, not even an empty one lent by a pooled
// holder. Under HPCC the receiver reads the records, so every frame keeps
// its stack.
func TestClearedFramesCrossTheLongHaulBare(t *testing.T) {
	for _, alg := range []string{AlgMLCC, AlgHPCC} {
		t.Run(alg, func(t *testing.T) {
			n := TwoDC(testParams(alg))
			var frames, stacked int
			for _, name := range []string{"dci0", "dci1"} {
				d := n.device(name)
				d.ports[d.longHaul].SetFaultHooks(&link.FaultHooks{Corrupt: func(p *pkt.Packet) bool {
					frames++
					if cap(p.Hops) > 0 {
						stacked++
					}
					return false
				}})
			}
			leaves := n.P.LeavesPerDC
			for j := 0; j < 4; j++ {
				n.AddFlow(n.RackHost(1, j), n.RackHost(1+leaves, j), 2<<20, 0)
				n.AddFlow(n.RackHost(1+leaves, j), n.RackHost(2+leaves, j), 2<<20, 0)
			}
			n.Run(15 * sim.Millisecond)
			if frames == 0 {
				t.Fatal("no data frame entered the long haul")
			}
			if want := map[string]int{AlgMLCC: 0, AlgHPCC: frames}[alg]; stacked != want {
				t.Errorf("%d of %d data frames entered the long haul holding a stack, want %d", stacked, frames, want)
			}
		})
	}
}
