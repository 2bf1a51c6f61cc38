// Package pkt defines the on-wire units of the simulator: data packets,
// acknowledgements, congestion-notification and Switch-INT control frames,
// PFC pause/resume frames, the per-hop INT telemetry stack, and the MLCC
// credit/rate fields carried by data packets and ACKs.
package pkt

import (
	"fmt"

	"mlcc/internal/sim"
)

// Kind identifies the packet type.
type Kind uint8

// Packet kinds.
const (
	Data      Kind = iota // payload-carrying data packet
	Ack                   // per-packet acknowledgement
	CNP                   // DCQCN congestion notification packet
	SwitchINT             // MLCC near-source feedback from the sender-side DCI switch
	Pause                 // PFC pause frame (hop-by-hop, data class)
	Resume                // PFC resume frame
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case CNP:
		return "CNP"
	case SwitchINT:
		return "SINT"
	case Pause:
		return "PAUSE"
	case Resume:
		return "RESUME"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// FlowID identifies a flow (a five-tuple in a real network).
type FlowID int32

// NodeID identifies a host or switch in the topology, numbered by its row in
// the network's device table. topo.CheckShape's largest shape numbers 12 804
// devices, so an int16 holds every id, as the flight record's node does.
type NodeID int16

// Priority classes. PFC applies to the data class only; control frames
// (ACK/CNP/SwitchINT) ride the control class and are scheduled strictly
// first, matching how RDMA deployments protect congestion signals.
const (
	ClassData    = 0
	ClassControl = 1
	NumClasses   = 2
)

// Pri returns the scheduling class of a frame of kind k: ClassData for data
// packets, ClassControl for every other kind.
func (k Kind) Pri() int {
	if k == Data {
		return ClassData
	}
	return ClassControl
}

// INTHop is one hop's in-band network telemetry record, stamped by a switch
// egress port when the packet is dequeued (HPCC-style).
type INTHop struct {
	Node    NodeID   // switch that stamped the record
	QLen    int64    // egress queue length in bytes at dequeue
	TxBytes int64    // cumulative bytes transmitted by the egress port
	TS      sim.Time // stamp time
	Band    sim.Rate // egress link capacity
}

// MaxINTHops bounds the telemetry stack, as INT headers do on real hardware.
const MaxINTHops = 8

// Packet is the unit moved through ports, links and switches. One Packet
// value represents one frame; it is allocated from a free list (see Pool)
// and must not be retained after being freed.
//
// A packet is in one place at a time — the pool's free list, one Queue (a
// switch, PFQ or host queue, a wire, an inbox) or the code processing it — so
// one intrusive link serves every container. Fields are ordered by width: the
// struct is exactly 96 bytes, a Go size class (TestPacketLayout).
type Packet struct {
	next *Packet // intrusive link: Queue successor or Pool free-list successor

	// INT telemetry stack; only a frame carrying records holds one (Pool).
	Hops []INTHop

	Seq    int64    // first payload byte offset (Data) or cumulative ack (Ack)
	EchoTS sim.Time // Timely's RTT sample: a data frame's emit time, echoed by its ACK

	// Rate is MLCC's rate field (Algorithm 1 / Algorithm 2), carried in
	// ACKs; 0 = unset. From the receiver to its own DCI switch it is
	// R_credit, the PFQ dequeue rate the receiver chose; the DCI switch reads
	// and clears it, then writes R̄_DQM, the smoothed DQM end-to-end rate,
	// for the sender.
	Rate sim.Rate

	// Wire bookkeeping, written by the transmitting link.Port at launch:
	// arrival time at the peer, and the cut epoch (a mismatch at delivery
	// means the wire was cut with the frame on it).
	At    sim.Time
	Epoch uint32

	Size int32 // bytes on the wire, including headers
	Flow FlowID
	Src  NodeID // originating host
	Dst  NodeID // destination host (for Pause/Resume: the paused neighbor)

	CD uint32 // MLCC credit stamped into data packets by the receiver-side DCI switch
	CR uint32 // MLCC credit echoed in ACKs by the receiver

	// InPort is switch-internal bookkeeping: the ingress port index the
	// packet arrived on (-1: generated inside the switch), used for PFC
	// per-ingress accounting while queued. fabric.Switch.AddPort refuses a
	// port index the byte cannot hold.
	InPort int8

	Kind       Kind  // its scheduling class is Kind.Pri
	PauseClass uint8 // priority class a Pause/Resume frame applies to

	// ECN state: ECT set by senders on data packets, CE set by a marking
	// switch. The receiver echoes CE via CNPs (DCQCN) or the ECE bit on ACKs.
	ECT bool
	CE  bool
	ECE bool // echoed CE, on ACKs

	// Last reports that this packet carries the final payload byte of its
	// flow (Data), or acknowledges it (Ack).
	Last bool

	linked bool // on a Queue or a Pool's free list, which then owns next; Get's zeroing clears it
}

// Standard frame sizes (bytes on the wire).
const (
	DefaultMTU  = 1000 // data packet size used throughout the evaluation
	ControlSize = 64   // ACK/CNP/SwitchINT/PFC frame size
)

// AddHop appends an INT record, respecting MaxINTHops. A packet no switch
// stamps never owns a stack; the stamping switches go through Pool.AddHop,
// which gives a stackless packet a whole stack at once, and append's doubling
// serves a deeper path or a pool-less packet.
func (p *Packet) AddHop(h INTHop) {
	if len(p.Hops) >= MaxINTHops {
		return
	}
	p.Hops = append(p.Hops, h)
}

// ClearHops empties the INT stack without releasing its storage.
func (p *Packet) ClearHops() { p.Hops = p.Hops[:0] }

// String renders a compact description for traces and tests.
func (p *Packet) String() string {
	return fmt.Sprintf("%s flow=%d %d->%d seq=%d size=%d", p.Kind, p.Flow, p.Src, p.Dst, p.Seq, p.Size)
}
