package p2p

import (
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Key-derivation tags separating the keyed RNG domains ("send" and
// "link" in ASCII, padded). Changing either changes every sampled delay.
const (
	sendKeyTag uint64 = 0x73656e644b657931 // "sendKey1"
	linkKeyTag uint64 = 0x6c696e6b4b657931 // "linkKey1"
)

// Framed sizes of the messages that travel as record fields rather than as
// a wire.Message, equal to what wire.EncodedSize says of the message each
// stands for (TestCompactSizesMatchWire). Every INV and GETDATA of the
// relay names one object.
const (
	frameLen    = 4 + 1 + 4 + 4     // wire header: magic, command, length, checksum
	invSize     = frameLen + 4 + 33 // one-item INV or GETDATA: count, then type and hash
	pongSize    = frameLen + 8      // nonce
	pingMinSize = frameLen + 8 + 4  // nonce and pad length; Network.pingSize adds the pad
)

// delivery is one in-flight message, by value: a record in the dispatch
// context's arena, scheduled as an indexed event (sim.Scheduler.AfterIndexed)
// whose index it is. Both ends are the nodes themselves — a node that
// churned away is recognised by Node.live, so a recycled slot cannot be
// mistaken for it. srcPos is the sender's adjacency position at the
// destination (-1 for a message addressed by ID), read from the sender's
// peer entry, and dstEpoch the destination's peer-table epoch when the
// message left: while the two still agree on arrival, srcPos needs no
// checking (Node.senderPos).
//
// What the message says is in the record too. cmd is its command. An INV,
// GETDATA, TX or BLOCK is the object it announces, asks for or carries —
// tx or block, the other nil — and hi, the object's dense hash index under
// inventory generation gen; a record that outlived that generation has its
// index resolved again from the object's hash (delivery.hash). A ping or
// pong is its nonce, and a ping also reads base, the baseline of the link
// it travels, which its pong travels back. Anything else — GETADDR, ADDR,
// JOIN, CLUSTER — stays a wire.Message, in the arena's side column at the
// record's index, and cmd is zero. A verification wait (Network.verified)
// is a record as well: the sender, the verifying node and the object.
//
// The record is one cache line (TestDeliveryIsOneCacheLine).
type delivery struct {
	src, dst *Node
	tx       *chain.Tx
	block    *chain.Block
	base     time.Duration
	nonce    uint64
	hi       int32
	gen      uint32
	dstEpoch uint32
	srcPos   int16
	cmd      wire.Command
}

// hash returns the hash of the object a relay record names.
func (d *delivery) hash() chain.Hash {
	if d.tx != nil {
		return d.tx.ID()
	}
	return d.block.Header.Hash()
}

// dispatchCtx is the network's dispatch state: keyed RNG scratch, the
// in-flight record arena, traffic counters and the trace shard. The
// network owns exactly one (Network.dc) and every event runs on the
// goroutine driving the scheduler, so none of it is shared.
type dispatchCtx struct {
	stats Stats

	// memoHash/memoIdx are the hash registry's last answer, valid while
	// memoGen is the network's inventory generation (see
	// Network.hashSlot). Zero is never a generation.
	memoHash chain.Hash
	memoIdx  int32
	memoGen  uint32

	// ksrc/krand are the keyed delivery RNG: ksrc is re-keyed per send
	// and krand adapts it to Float64/NormFloat64 without allocating.
	// NewNetwork points krand at the embedded ksrc, so the context must
	// not be copied.
	ksrc  sim.KeyedSource
	krand *rand.Rand

	// flight is the arena of in-flight records and flightMsg its side
	// column, the same length: the wire.Message of a record whose cmd is
	// zero. flightFree lists the free indices, LIFO — a handler that
	// sends reuses the record it was dispatched from. The in-flight count
	// bounds the arena, and steady state allocates nothing.
	flight     []delivery
	flightMsg  []wire.Message
	flightFree []int32
	// lost is where the payload of a message that will not arrive is
	// written: deliver returns it in place of an arena record, so callers
	// fill in what they send without asking whether it left.
	lost delivery

	// probePool recycles the payloads behind ProbeN's AfterCall events.
	probePool []*probeJob

	// trace is the event-trace shard, nil unless tracing is enabled
	// (Network.EnableTrace): the disabled path costs one nil check.
	trace *obs.Shard
}

// newFlight returns the index of a free in-flight record, growing the
// arena when none is.
func (dc *dispatchCtx) newFlight() int32 {
	if last := len(dc.flightFree) - 1; last >= 0 {
		idx := dc.flightFree[last]
		dc.flightFree = dc.flightFree[:last]
		return idx
	}
	dc.flight = append(dc.flight, delivery{})
	dc.flightMsg = append(dc.flightMsg, nil)
	return int32(len(dc.flight) - 1)
}

// takeFlight copies the record at idx out and frees it — before it is
// handled, so what the handler sends goes into the record just read. A
// free record is zero: it must not keep a node that churned away, or a
// transaction of an earlier flood, reachable.
func (dc *dispatchCtx) takeFlight(idx int32) delivery {
	d := dc.flight[idx]
	dc.flight[idx] = delivery{}
	dc.flightFree = append(dc.flightFree, idx)
	return d
}

// newProbeJob pops a pooled payload (or allocates on first use).
func (dc *dispatchCtx) newProbeJob(n *Network, slot, tslot int32, id, target NodeID, base time.Duration, onPong func(time.Duration)) *probeJob {
	if last := len(dc.probePool) - 1; last >= 0 {
		j := dc.probePool[last]
		dc.probePool = dc.probePool[:last]
		j.slot, j.tslot, j.id, j.target, j.base, j.onPong = slot, tslot, id, target, base, onPong
		return j
	}
	return &probeJob{net: n, slot: slot, tslot: tslot, id: id, target: target, base: base, onPong: onPong}
}
