package fabric

import (
	"math/rand"
	"testing"

	"mlcc/internal/link"
	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// TestSwitchInvariantsUnderRandomTraffic drives random flows from several
// hosts through one switch with tight buffers and PFC enabled, then checks
// the conservation invariants: every data packet is either delivered or
// counted as dropped, and all buffer/ingress accounting returns to zero.
func TestSwitchInvariantsUnderRandomTraffic(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		eng := sim.NewEngine()
		pool := pkt.NewPool()
		cfg := Config{
			ID:          100,
			BufferBytes: int64(20_000 + rng.Intn(200_000)),
			PFCEnabled:  rng.Intn(2) == 0,
			PFCXoff:     8_000,
			PFCXon:      4_000,
			ECNKmin:     4_000,
			ECNKmax:     16_000,
			ECNPmax:     0.5,
			INTEnabled:  true,
			Seed:        int64(trial),
		}
		sw := New(eng, pool, cfg)

		const nHosts = 4
		hosts := make([]*stubHost, nHosts)
		for i := range hosts {
			rate := sim.Rate(1+rng.Intn(40)) * sim.Gbps
			h := newStubHost(eng, pool, pkt.NodeID(i+1), rate, sim.Microsecond)
			p := sw.AddPort(rate, sim.Microsecond)
			link.Connect(h.port, p)
			sw.AddRoute(pkt.NodeID(i+1), i)
			hosts[i] = h
		}

		sent := 0
		for i := 0; i < 300; i++ {
			src := rng.Intn(nHosts)
			dst := rng.Intn(nHosts)
			if dst == src {
				dst = (dst + 1) % nHosts
			}
			size := 64 + rng.Intn(1400)
			p := pool.NewData(pkt.FlowID(i%17), pkt.NodeID(src+1), pkt.NodeID(dst+1), int64(i), size)
			at := sim.Time(rng.Intn(200)) * sim.Microsecond
			h := hosts[src]
			eng.At(at, func() { h.send(p) })
			sent++
		}
		eng.Run()

		delivered := 0
		for _, h := range hosts {
			for _, p := range h.got {
				if p.Kind == pkt.Data {
					delivered++
				}
			}
		}
		if delivered+int(sw.Drops) != sent {
			t.Fatalf("trial %d: delivered %d + dropped %d != sent %d",
				trial, delivered, sw.Drops, sent)
		}
		if sw.BufferUsed() != 0 {
			t.Fatalf("trial %d: buffer residual %d", trial, sw.BufferUsed())
		}
		for i, v := range sw.ingressBytes {
			if v != 0 {
				t.Fatalf("trial %d: ingress %d residual %d", trial, i, v)
			}
		}
		if cfg.PFCEnabled && sw.PFCPauses != sw.pfcResumes {
			t.Fatalf("trial %d: pauses %d != resumes %d after drain",
				trial, sw.PFCPauses, sw.pfcResumes)
		}
	}
}

// TestSwitchLosslessUnderPFC checks that with PFC on and generous thresholds
// relative to buffer size, no packet is ever dropped regardless of overload.
func TestSwitchLosslessUnderPFC(t *testing.T) {
	eng := sim.NewEngine()
	pool := pkt.NewPool()
	cfg := Config{
		ID:          1,
		BufferBytes: 1 << 20,
		PFCEnabled:  true,
		PFCXoff:     64 << 10, // 64KB of 1MB: plenty of headroom
		PFCXon:      32 << 10,
		Seed:        1,
	}
	sw := New(eng, pool, cfg)
	fast := newStubHost(eng, pool, 1, 100*sim.Gbps, sim.Microsecond)
	slow := newStubHost(eng, pool, 2, sim.Gbps, sim.Microsecond)
	pf := sw.AddPort(100*sim.Gbps, sim.Microsecond)
	ps := sw.AddPort(sim.Gbps, sim.Microsecond)
	link.Connect(fast.port, pf)
	link.Connect(slow.port, ps)
	sw.AddRoute(1, 0)
	sw.AddRoute(2, 1)

	const n = 2000
	for i := 0; i < n; i++ {
		fast.send(pool.NewData(1, 1, 2, int64(i)*1000, 1000))
	}
	eng.Run()
	if sw.Drops != 0 {
		t.Fatalf("dropped %d packets despite PFC", sw.Drops)
	}
	if len(slow.got) != n {
		t.Fatalf("delivered %d of %d", len(slow.got), n)
	}
	// 100:1 overload must have paused the fast host.
	if fast.port.PauseRx == 0 {
		t.Fatal("fast sender never paused")
	}
}
