package main

import (
	"container/heap"
	"time"
)

// The calibration kernel. On a shared machine the speed of a core wanders by
// ±20 % over tens of seconds (frequency, a busy sibling thread), far more
// than any change this benchmark is meant to resolve, and no amount of
// repetition inside one pass averages it away. So every lap interleaves
// slices of a fixed kernel with its segments and reports its time relative to
// the kernel's: host seconds on a machine where the kernel runs at
// calRefNsPerIter. The kernel lives here and uses only the standard library,
// so no change to the simulator can move it. Heap churn on a small pointer
// heap tracked the simulator's slowdowns best of the kernels tried; one that
// also walked 16 MB of memory tracked them worse (see README.md).

const (
	// calRefNsPerIter is the kernel's cost per iteration on the reference
	// sandbox (2 vCPU Xeon 2.1 GHz) in a quiet moment. It only fixes the unit:
	// ratios between calibrated times do not depend on it.
	calRefNsPerIter = 140.0

	// calItersPerSubRun is the calibration work interleaved with one
	// sub-run, spread evenly over its segment boundaries: ~20 ms, a few
	// percent of a sub-run.
	calItersPerSubRun = 150_000
)

type calEvent struct {
	at  int64
	seq uint64
	fn  func()
}

type calHeap []*calEvent

func (h calHeap) Len() int { return len(h) }
func (h calHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h calHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)   { *h = append(*h, x.(*calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// calibrator is the kernel's state: 256 pending events, each firing
// rescheduled a pseudo-random time later.
type calibrator struct {
	h     calHeap
	rng   xorshift
	fired uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{rng: 88172645463325252}
	fn := func() { c.fired++ }
	for i := 0; i < 256; i++ {
		heap.Push(&c.h, &calEvent{at: int64(c.rng.next() % 1000), seq: uint64(i), fn: fn})
	}
	return c
}

// run executes iters iterations and returns how long they took.
func (c *calibrator) run(iters int) time.Duration {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		e := heap.Pop(&c.h).(*calEvent)
		e.fn()
		e.at += int64(1 + c.rng.next()%1000)
		heap.Push(&c.h, e)
	}
	return time.Since(t0)
}

// calibrated converts a wall time into reference-machine seconds, given how
// long iters kernel iterations took over the same stretch of time.
func calibrated(wallS float64, iters int, calS float64) float64 {
	return wallS * (float64(iters) * calRefNsPerIter * 1e-9) / calS
}

// The set-up kernel. Set-up is allocation-bound — it builds an object graph —
// and slows differently from heap churn when the machine is contended, so it
// is scaled by a kernel that builds an object graph too: nodes with a map, a
// few slices and a link to their neighbour. Ten groups of forty 256-host
// set-ups over three minutes read, as lower quartiles, 3.3–5.8 ms raw (range
// 54 % of the median), 23 % scaled by the heap-churn kernel and 12 % scaled
// by this one.

const (
	calSetupNodes = 3000
	// calRefSetupS is the set-up kernel's time on the reference sandbox in a
	// quiet moment; like calRefNsPerIter it only fixes the unit.
	calRefSetupS = 0.0007
)

type calNode struct {
	id    int
	ports []*calNode
	route map[int][]int
	buf   [16]int64
}

// calSetupSink keeps the graph reachable so the compiler cannot elide it.
var calSetupSink []*calNode

// runSetupKernel builds the graph once and returns how long it took.
func runSetupKernel() time.Duration {
	t0 := time.Now()
	nodes := make([]*calNode, 0, calSetupNodes)
	for i := 0; i < calSetupNodes; i++ {
		nd := &calNode{id: i, route: make(map[int][]int)}
		for j := 0; j < 4; j++ {
			nd.route[j] = append(nd.route[j], i+j)
		}
		if i > 0 {
			nd.ports = append(nd.ports, nodes[i-1])
		}
		nodes = append(nodes, nd)
	}
	calSetupSink = nodes
	return time.Since(t0)
}
