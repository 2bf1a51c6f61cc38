// Package link models full-duplex network links as pairs of ports. Each
// port serializes frames at line rate, delivers them after the link's
// propagation delay, and honours per-class PFC pause state.
//
// Ports use a pull model: a device registers a Source, and the port asks it
// for the next frame whenever the transmitter goes idle. Devices call Kick
// when new work arrives. This lets hosts (rate-paced QPs), switches (shared
// buffer queues) and DCI switches (per-flow queues with credit-controlled
// drain rates) share one transmission path.
package link

import (
	"fmt"
	"math/rand"

	"mlcc/internal/pkt"
	"mlcc/internal/sim"
)

// Endpoint consumes frames delivered by a port.
type Endpoint interface {
	// Receive is invoked when a frame fully arrives on port on.
	// The endpoint takes ownership of the packet.
	Receive(p *pkt.Packet, on *Port)
}

// Source supplies frames to transmit. Next must return nil when nothing is
// eligible; classes marked true in paused must not be dequeued.
type Source interface {
	Next(paused *[pkt.NumClasses]bool) *pkt.Packet
}

// silentSource is a Source that can vouch for its silence: Quiet reports that
// it is empty and that whoever refills it kicks the port right after, so
// Next returns nil until then. A port pulling from it may defer the end of
// a serialization (pullNext).
type silentSource interface {
	Source
	Quiet() bool
}

// Port is one direction-pair endpoint of a full-duplex link.
type Port struct {
	Eng   *sim.Engine
	Owner Endpoint
	Index int // port number within the owning device
	Rate  sim.Rate
	Delay sim.Time // propagation delay to the peer
	Pool  *pkt.Pool

	peer   *Port
	src    Source
	quiet  silentSource // src, when it is one (SetSource)
	busy   bool
	paused [pkt.NumClasses]bool

	// txFrame is the frame currently serializing; txDone is its completion
	// callback, bound once at construction so transmitting a frame does not
	// allocate a closure per packet. done holds txDone's key instead of a
	// queued event while the end of serialization is deferred (pullNext).
	txFrame *pkt.Packet
	txDone  func()
	done    sim.Key

	// In-flight frames on the wire toward the peer, each carrying its own
	// arrival time and launch epoch (pkt.Packet.At, .Epoch). Arrival times
	// are monotone (serialization completes in order, propagation is
	// constant), so the pipe is a FIFO drained by a single scheduled event —
	// keeping the engine heap small even when megabytes are in flight on a
	// long-haul link. pipeArmed covers both a pending drain event and a
	// drain in progress, so launches from within the drain never double-arm.
	// drain is the bound drainPipe callback (one closure per port). Flags sit
	// last in their group, so they share a word with the next group's.
	pipe      pkt.Queue
	drain     func()
	pipeArmed bool

	// Cross-shard mode (ConnectCross): the two ends of this link live on
	// different engines, so the sender must not schedule delivery events on
	// the peer's engine. Instead launch stages frames in the pipe (which
	// doubles as the outbound mailbox — same monotone FIFO, same lastAt
	// clamp, same SendPause tail semantics) without arming the drain, and
	// FlushCross moves them into the peer's inbox at each shard barrier. The
	// inbox is the receiving half: a monotone FIFO of inbound frames drained
	// by a single event on the receiver's own engine, firing at each frame's
	// exact arrival time — one firing per distinct arrival time, exactly as
	// the single-engine drain, so event counts (and digests) match.
	cross      bool
	inbox      pkt.Queue
	inboxDrain func()
	inboxArmed bool

	// Fault-injection state, driven by internal/fault (see DESIGN.md,
	// "Fault model"). All of it covers the transmit direction only; taking
	// a full-duplex link down means calling SetDown on both ports. effRate
	// is the current line rate — Rate stays nominal because INT stamping
	// advertises configured, not degraded, capacity.
	down    bool
	effRate sim.Rate
	xDelay  sim.Time   // extra propagation delay while degraded
	jitter  sim.Time   // max uniform random extra delay per frame
	jrng    *rand.Rand // jitter stream (required when jitter > 0)
	lastAt  sim.Time   // last wire arrival time; keeps arrivals monotone under jitter
	faults  *FaultHooks

	// cutEpoch is bumped on every down-transition of this transmit
	// direction. Frames are stamped with the sender's epoch at launch and
	// checked at delivery: a stale stamp means the wire was cut while the
	// frame was in flight, so it is destroyed at the exact instant it would
	// have arrived. Destroying cut frames at their arrival times — instead
	// of purging the pipe at the cut — keeps the event schedule identical
	// between single-engine and sharded builds, where the receiving half of
	// a cross-shard wire drains on its own engine.
	cutEpoch uint32

	// auditDrop, when set, observes every frame the fault layer destroys on
	// this port just before it returns to the pool; corrupt distinguishes
	// Bernoulli corruption from admin-down discards. It is a separate slot
	// from FaultHooks.OnDrop so the conservation audit (internal/audit) can
	// watch every port while the fault injector owns only the managed ones.
	auditDrop func(p *pkt.Packet, corrupt bool)

	// Counters (exported for INT stamping and statistics).
	TxBytes     int64 // cumulative bytes fully serialized
	TxPackets   int64
	MacTx       int64 // MAC-injected frames (PFC pause/resume) put on the wire, bypassing TxPackets
	rxBytes     int64
	RxPackets   int64
	PauseRx     int64 // pause frames received (this port was throttled)
	pauseTx     int64 // pause frames sent from this port
	pausedSince sim.Time
	pausedTotal sim.Time // cumulative paused time on the data class
	FaultDrops  int64    // frames destroyed by the fault layer at this transmitter
	CutDrops    int64    // in-flight frames destroyed at arrival because the wire was cut (receiver side)
}

// FaultHooks let the fault layer (internal/fault) observe and perturb a
// port's transmit direction without the port knowing about plans or PRNGs.
type FaultHooks struct {
	// Corrupt, if set, is consulted for every data frame entering the wire;
	// returning true destroys the frame (modelling a checksum failure at
	// the receiver). Control and PFC frames are never offered: they are
	// assumed FEC-protected, which keeps lossy links from wedging PFC
	// state (see DESIGN.md, "Fault model").
	Corrupt func(*pkt.Packet) bool
	// OnDrop sees every frame the fault layer destroys on this port —
	// corruption, down-link discards and in-flight cuts alike — just before
	// it returns to the pool, after the port counted it (FaultDrops or
	// CutDrops), so the hook only records. A cut (cut = true) fires on the
	// receiving port, every other drop on the transmitter.
	OnDrop func(frame *pkt.Packet, cut bool)
}

// NewPort constructs an unconnected port. Call SetSource before any traffic
// can flow, and Connect to join two ports into a link.
func NewPort(eng *sim.Engine, owner Endpoint, index int, rate sim.Rate, delay sim.Time, pool *pkt.Pool) *Port {
	if rate <= 0 {
		panic(fmt.Sprintf("link: port %d with rate %v", index, rate))
	}
	p := &Port{Eng: eng, Owner: owner, Index: index, Rate: rate, Delay: delay, Pool: pool}
	p.effRate = rate
	p.txDone = p.finishTx
	p.drain = p.drainPipe
	eng.Register(&p.done)
	return p
}

// SetFaultHooks attaches fault callbacks (nil detaches).
func (p *Port) SetFaultHooks(h *FaultHooks) {
	p.sync(true)
	p.faults = h
}

// SetAuditDrop attaches the conservation-audit drop observer (nil detaches).
func (p *Port) SetAuditDrop(fn func(p *pkt.Packet, corrupt bool)) { p.auditDrop = fn }

// InFlightFrames reports frames currently on the wire toward the peer
// (launched, not yet delivered) — the in-flight term of the per-link
// conservation equation. On a cross-shard link this spans both halves of the
// wire: frames staged in this port's outbound pipe awaiting a barrier flush
// plus frames parked in the peer's inbox awaiting their arrival time.
func (p *Port) InFlightFrames() int {
	p.sync(false)
	n := p.pipe.Len()
	if p.cross && p.peer != nil {
		n += p.peer.inbox.Len()
	}
	return n
}

// SetDown administratively downs or restores the transmit direction.
// Downing cuts the wire: frames already in flight never reach the peer
// (they are destroyed on the receiving port at the instant they would have
// arrived — see cutEpoch), a frame mid-serialization is destroyed when it
// completes, and frames offered while down are silently discarded. PFC
// pause state is cleared (the MAC reinitializes on link-up) after folding
// any open pause interval into pausedTotal. Restoring kicks the
// transmitter.
func (p *Port) SetDown(down bool) {
	if p.down == down {
		return
	}
	p.sync(true)
	p.down = down
	if !down {
		p.Kick()
		return
	}
	if p.paused[pkt.ClassData] {
		p.pausedTotal += p.Eng.Now() - p.pausedSince
	}
	p.paused = [pkt.NumClasses]bool{}
	// Cut the wire: frames launched before this instant carry the old
	// epoch and die at delivery time. The pipe and its drain events are
	// untouched, so single-engine and sharded builds fire the exact same
	// event schedule through a cut.
	p.cutEpoch++
}

// SetImpairment degrades (or restores) the transmit direction at runtime:
// the line rate becomes rateFactor × Rate and every frame picks up
// extraDelay of propagation plus uniform random jitter in [0, jitter]
// drawn from rng. SetImpairment(1, 0, 0, nil) restores the nominal link.
// Jittered arrivals are clamped to stay monotone: links never reorder.
func (p *Port) SetImpairment(rateFactor float64, extraDelay, jitter sim.Time, rng *rand.Rand) {
	if rateFactor <= 0 || rateFactor > 1 {
		panic(fmt.Sprintf("link: impairment rate factor %v outside (0, 1]", rateFactor))
	}
	if extraDelay < 0 || jitter < 0 {
		panic(fmt.Sprintf("link: negative impairment delay (%v, %v)", extraDelay, jitter))
	}
	if jitter > 0 && rng == nil {
		panic("link: jitter impairment without an rng")
	}
	p.sync(true)
	p.effRate = sim.Rate(float64(p.Rate) * rateFactor)
	if p.effRate <= 0 {
		p.effRate = 1
	}
	p.xDelay = extraDelay
	p.jitter = jitter
	p.jrng = rng
}

// faultDiscard destroys a frame at the transmitter on behalf of the fault
// layer — a Bernoulli corruption at wire entry when corrupt, else a frame
// offered to, or completing serialization on, an admin-down transmitter:
// counted in FaultDrops, reported to the OnDrop and audit hooks, and
// returned to the pool.
func (p *Port) faultDiscard(frame *pkt.Packet, corrupt bool) {
	p.FaultDrops++
	if p.faults != nil && p.faults.OnDrop != nil {
		p.faults.OnDrop(frame, false)
	}
	if p.auditDrop != nil {
		p.auditDrop(frame, corrupt)
	}
	p.Pool.Put(frame)
}

// cutDiscard destroys a frame arriving on a wire that was cut after its
// launch: counted in the receiving port's CutDrops (a separate counter from
// the transmitter-side FaultDrops, so each direction's conservation equation
// keeps its own terms), reported to this port's hooks, and returned to the
// pool.
func (p *Port) cutDiscard(frame *pkt.Packet) {
	p.CutDrops++
	if p.faults != nil && p.faults.OnDrop != nil {
		p.faults.OnDrop(frame, true)
	}
	if p.auditDrop != nil {
		p.auditDrop(frame, false)
	}
	p.Pool.Put(frame)
}

// SetSource registers the frame supplier for this port.
func (p *Port) SetSource(s Source) {
	p.sync(true)
	p.src = s
	p.quiet, _ = s.(silentSource)
}

// Connect joins a and b as the two ends of one link.
func Connect(a, b *Port) {
	a.peer = b
	b.peer = a
}

// ConnectCross joins a and b as the two ends of a cross-shard link: the
// ports live on different engines, launched frames are staged instead of
// scheduled, and FlushCross moves them to the receiving side at each shard
// barrier. Cross links support the full fault layer (admin-down, loss,
// impairment) provided the injector drives both directions at the same
// absolute times, which keeps each port's local cutEpoch a faithful mirror
// of its remote transmitter's (see internal/fault and DESIGN.md, "Sharded
// faults").
func ConnectCross(a, b *Port) {
	Connect(a, b)
	a.cross = true
	b.cross = true
	a.inboxDrain = a.drainInbox
	b.inboxDrain = b.drainInbox
}

// FlushCross moves every frame staged in this port's outbound pipe into the
// peer's inbox and arms the peer's inbox drain. Called at a shard barrier
// with both engines quiescent; every staged arrival time is strictly after
// the barrier (arrival ≥ launch + propagation > barrier − lookahead +
// lookahead), so the drain is always armed in the peer's future.
func (p *Port) FlushCross() {
	if !p.cross || p.pipe.Len() == 0 {
		return
	}
	q := p.peer
	for f := p.pipe.Pop(); f != nil; f = p.pipe.Pop() {
		q.inbox.Push(f)
	}
	if !q.inboxArmed {
		q.inboxArmed = true
		q.Eng.At(q.inbox.Peek().At, q.inboxDrain)
	}
}

// drainInbox is the receiving-side mirror of drainPipe, on this port's engine.
func (p *Port) drainInbox() { p.inboxArmed = p.drainDue(&p.inbox, p, p.inboxDrain) }

// Peer returns the other end of the link, or nil if unconnected.
func (p *Port) Peer() *Port { return p.peer }

// Cross reports whether this port is one end of a cross-shard link (the peer
// lives on another engine). Node-fault resolution uses this to decide which
// engine must own each end's state changes.
func (p *Port) Cross() bool { return p.cross }

// Busy reports whether the transmitter is mid-frame.
func (p *Port) Busy() bool {
	p.sync(false)
	return p.busy
}

// Paused reports whether the given class is PFC-paused.
func (p *Port) Paused(class int) bool { return p.paused[class] }

// Kick prompts the port to pull from its source if idle. Safe to call at any
// time, including re-entrantly from Source.Next via event callbacks.
func (p *Port) Kick() {
	p.sync(true)
	if !p.busy {
		p.pullNext()
	}
}

func (p *Port) pullNext() {
	if p.src == nil || p.peer == nil || p.down {
		return
	}
	frame := p.src.Next(&p.paused)
	if frame == nil {
		return
	}
	p.busy = true
	p.txFrame = frame
	tx := sim.TxTime(int(frame.Size), p.effRate)
	p.TxBytes += int64(frame.Size)
	p.TxPackets++
	// Nobody would watch finishTx fire at end if it launched onto a wire
	// whose drain stays armed past end (so not a cross-shard one), met no
	// corruption hook or impairment, and pulled nothing from a quiet
	// source: it would schedule nothing. Defer it; sync settles or commits
	// it first. OnDrop only records, and every writer that could make a
	// launch drop (SetDown, SetImpairment, SetFaultHooks) syncs first.
	end := p.Eng.Now() + tx
	if tail := p.pipe.Back(); p.pipeArmed && tail != nil && tail.At > end && (p.faults == nil || p.faults.Corrupt == nil) &&
		p.xDelay == 0 && p.jitter == 0 && p.quiet != nil && p.quiet.Quiet() {
		p.Eng.Defer(&p.done, end)
		return
	}
	p.Eng.After(tx, p.txDone)
}

// sync brings a deferred end of serialization up to date before the port is
// read, or with commit before it changes: a due end launches its frame as
// finishTx would have (whose pull would have found the quiet source empty);
// before a change, one not yet due is queued to fire as finishTx.
func (p *Port) sync(commit bool) {
	if p.Eng.Due(&p.done) {
		end := p.Eng.Settle(&p.done)
		frame := p.txFrame
		p.txFrame, p.busy = nil, false
		p.launch(frame, end+p.Delay)
	} else if commit {
		p.Eng.Commit(&p.done, p.txDone)
	}
}

// finishTx completes the serialization of txFrame: the frame leaves the
// transmitter onto the wire and the port pulls its next frame. If the link
// went down mid-serialization the frame was cut on the wire.
func (p *Port) finishTx() {
	frame := p.txFrame
	p.txFrame = nil
	p.busy = false
	if p.down {
		p.faultDiscard(frame, false)
		return
	}
	p.launch(frame, p.Eng.Now()+p.Delay)
	p.pullNext()
}

// launch places a frame on the wire, arriving at the peer at time at.
// Arrival times must be monotone, which serialization order guarantees on
// healthy links and the lastAt clamp enforces under jitter. The fault layer
// intercepts here: a down port discards everything offered (covering
// MAC-injected PFC frames too), and the corruption hook may destroy data
// frames entering the wire.
func (p *Port) launch(frame *pkt.Packet, at sim.Time) {
	if p.down {
		p.faultDiscard(frame, false)
		return
	}
	if p.faults != nil && p.faults.Corrupt != nil && frame.Kind == pkt.Data && p.faults.Corrupt(frame) {
		p.faultDiscard(frame, true)
		return
	}
	if p.xDelay > 0 {
		at += p.xDelay
	}
	if p.jitter > 0 {
		at += sim.Time(p.jrng.Int63n(int64(p.jitter) + 1))
	}
	if at < p.lastAt {
		at = p.lastAt
	}
	p.lastAt = at
	frame.At, frame.Epoch = at, p.cutEpoch
	p.pipe.Push(frame)
	// Cross-shard links never arm the sender-side drain: the staged pipe is
	// the outbound mailbox, flushed to the peer's inbox at the next barrier.
	if !p.pipeArmed && !p.cross {
		p.pipeArmed = true
		p.Eng.At(at, p.drain)
	}
}

// drainPipe delivers the wire's due frames to the peer.
func (p *Port) drainPipe() {
	p.sync(false)
	p.pipeArmed = p.drainDue(&p.pipe, p.peer, p.drain)
}

// drainDue delivers to dst every frame of q whose arrival time has come and
// re-arms again, the single pending event, for the next head if there is one.
func (p *Port) drainDue(q *pkt.Queue, dst *Port, again func()) bool {
	now := p.Eng.Now()
	for f := q.Peek(); f != nil; f = q.Peek() {
		if f.At > now {
			p.Eng.At(f.At, again)
			return true
		}
		dst.deliver(q.Pop())
	}
	return false
}

// wireEpoch returns the cut epoch governing frames arriving on this port.
// On a local link that is the peer transmitter's epoch directly. On a
// cross-shard link the peer lives on another engine, so the local epoch is
// read instead — a faithful mirror because the injector downs both
// directions of a managed link at identical absolute times, and scripted
// events (scheduled at build time, minimal insertion seq) order before any
// runtime-armed drain at the same timestamp on every engine.
func (p *Port) wireEpoch() uint32 {
	if p.cross {
		return p.cutEpoch
	}
	return p.peer.cutEpoch
}

// deliver hands an arriving frame to the owner, intercepting PFC frames:
// a Pause received on a port throttles that port's own transmitter, exactly
// as IEEE 802.1Qbb pauses the sender at the far end of the link. A frame
// whose launch epoch predates a wire cut is destroyed here, at its exact
// arrival time.
func (p *Port) deliver(frame *pkt.Packet) {
	if frame.Epoch != p.wireEpoch() {
		p.cutDiscard(frame)
		return
	}
	p.rxBytes += int64(frame.Size)
	p.RxPackets++
	switch frame.Kind {
	case pkt.Pause:
		p.PauseRx++
		p.setPaused(int(frame.PauseClass), true)
		p.Pool.Put(frame)
		return
	case pkt.Resume:
		p.setPaused(int(frame.PauseClass), false)
		p.Pool.Put(frame)
		return
	}
	p.Owner.Receive(frame, p)
}

func (p *Port) setPaused(class int, paused bool) {
	if class < 0 || class >= pkt.NumClasses {
		return
	}
	was := p.paused[class]
	p.paused[class] = paused
	if class == pkt.ClassData {
		if paused && !was {
			p.pausedSince = p.Eng.Now()
		} else if !paused && was {
			p.pausedTotal += p.Eng.Now() - p.pausedSince
		}
	}
	if !paused && was {
		p.Kick()
	}
}

// PausedTotalAt reports the cumulative data-class paused time as of now,
// folding in a still-open pause interval — pausedTotal alone misses a pause
// outstanding at simulation end (or at port shutdown).
func (p *Port) PausedTotalAt(now sim.Time) sim.Time {
	t := p.pausedTotal
	if p.paused[pkt.ClassData] {
		t += now - p.pausedSince
	}
	return t
}

// SendPause emits a PFC pause (or resume) frame for class on this port's
// reverse direction. The frame is injected directly at the transmitter —
// PFC frames are generated by the MAC and do not queue behind data.
func (p *Port) SendPause(class int, pause bool) {
	if p.peer == nil {
		return
	}
	p.sync(true)
	kind := pkt.Resume
	if pause {
		kind = pkt.Pause
		p.pauseTx++
	}
	f := p.Pool.NewControl(kind, 0, 0, 0)
	f.PauseClass = uint8(class)
	// Model MAC-level injection: serialization of the 64B frame at line
	// rate, then propagation. The frame shares the FIFO pipe, so it cannot
	// overtake frames already on the wire (links never reorder).
	tx := sim.TxTime(int(f.Size), p.effRate)
	at := p.Eng.Now() + tx + p.Delay
	if tail := p.pipe.Back(); tail != nil {
		at = max(at, tail.At)
	}
	p.MacTx++ // bypasses TxPackets; the conservation audit counts it separately
	p.launch(f, at)
}
