package cc

import (
	"encoding/binary"
	"math"
	"testing"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// FuzzINTFeedback hammers the INT feedback consumers with arbitrary hop
// stacks: whatever the reverse path delivers — truncated stacks, regressed
// timestamps and counters, garbage queue lengths and bandwidths, oversize
// stacks — validation plus the estimator's corruption guards must keep the
// control loop sane. Nothing may panic, U must stay finite and non-negative,
// and the pacing rate must stay inside [MinRate, line rate].
//
// The input bytes encode a sequence of stacks: one hop-count byte, then 33
// bytes per hop (node id + QLen/TxBytes/TS/Band as little-endian int64s).
// seqA/seqB perturb the ack sequence numbers fed alongside, covering
// reordered and duplicate ack deliveries.
func FuzzINTFeedback(f *testing.F) {
	const hopBytes = 1 + 4*8
	enc := func(stacks ...[]pkt.INTHop) []byte {
		var out []byte
		for _, hops := range stacks {
			out = append(out, byte(len(hops)))
			for _, h := range hops {
				var b [hopBytes]byte
				b[0] = byte(h.Node)
				binary.LittleEndian.PutUint64(b[1:], uint64(h.QLen))
				binary.LittleEndian.PutUint64(b[9:], uint64(h.TxBytes))
				binary.LittleEndian.PutUint64(b[17:], uint64(h.TS))
				binary.LittleEndian.PutUint64(b[25:], uint64(h.Band))
				out = append(out, b[:]...)
			}
		}
		return out
	}
	band := 100 * sim.Gbps
	honest := func(ts sim.Time, tx int64) []pkt.INTHop {
		return []pkt.INTHop{{Node: 1, QLen: 1000, TxBytes: tx, TS: ts, Band: band}}
	}
	f.Add(enc(honest(0, 0), honest(25*sim.Microsecond, 31250)), int64(0), int64(25000))
	// Regressed TS and TxBytes after an honest prime.
	f.Add(enc(honest(25*sim.Microsecond, 31250), honest(10*sim.Microsecond, 100)), int64(5000), int64(-1))
	// Garbage fields: negative QLen/Band.
	f.Add(enc([]pkt.INTHop{{Node: 2, QLen: -5, TxBytes: 1, TS: 1, Band: -band}}), int64(0), int64(0))
	// Truncated/oversize stack length byte with short payload.
	f.Add([]byte{7, 1, 2, 3}, int64(1), int64(2))

	f.Fuzz(func(t *testing.T, data []byte, seqA, seqB int64) {
		T := 25 * sim.Microsecond
		e := newUtilEstimator(T)
		c := NewWindowController(T, 25*sim.Gbps, 1000, 0.95, 5)
		seqs := [2]int64{seqA, seqB}
		for step := 0; len(data) > 0 && step < 64; step++ {
			n := int(data[0])
			data = data[1:]
			if n > pkt.MaxINTHops+2 {
				n = pkt.MaxINTHops + 2 // bound work, keep oversize stacks reachable
			}
			var hops []pkt.INTHop
			for j := 0; j < n && len(data) >= hopBytes; j++ {
				hops = append(hops, pkt.INTHop{
					Node:    pkt.NodeID(data[0]),
					QLen:    int64(binary.LittleEndian.Uint64(data[1:9])),
					TxBytes: int64(binary.LittleEndian.Uint64(data[9:17])),
					TS:      sim.Time(binary.LittleEndian.Uint64(data[17:25])),
					Band:    sim.Rate(binary.LittleEndian.Uint64(data[25:33])),
				})
				data = data[hopBytes:]
			}
			u, ok := e.update(hops)
			if math.IsNaN(u) || math.IsInf(u, 0) || u < 0 {
				t.Fatalf("step %d: estimator U = %v (ok=%v) for %+v", step, u, ok, hops)
			}
			if ok && len(hops) > 0 && !ValidINTStack(hops) {
				t.Fatalf("step %d: invalid stack updated the estimator: %+v", step, hops)
			}
			c.OnFeedback(hops, seqs[step%2]+int64(step)*1000)
			if cu := c.Est.U(); math.IsNaN(cu) || math.IsInf(cu, 0) || cu < 0 {
				t.Fatalf("step %d: controller U = %v", step, cu)
			}
			if r := c.Rate(); r < MinRate || r > 25*sim.Gbps {
				t.Fatalf("step %d: rate %v escaped [MinRate, line rate]", step, r)
			}
		}
	})
}
