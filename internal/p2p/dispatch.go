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

// dispatchCtx is the network's dispatch state: keyed RNG scratch,
// payload/message pools, traffic counters and the trace shard. The
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

	// Payload pools behind the scheduler's AfterCall events — see the
	// pooling rationale on runDelivery/runVerify/runProbe.
	deliveryPool []*delivery
	verifyPool   []*verifyJob
	probePool    []*probeJob

	// Message pools. Every hot-path message type is single-recipient and
	// consumed entirely inside handleMessage, so runDelivery returns them
	// right after dispatch. Messages dropped by loss or a vanished
	// endpoint simply miss the pool — correctness never depends on
	// recycling.
	pingPool     []*wire.MsgPing
	pongPool     []*wire.MsgPong
	getDataPool  []*wire.MsgGetData
	invPool      []*wire.MsgInv
	txMsgPool    []*wire.MsgTx
	blockMsgPool []*wire.MsgBlock
	// pingPad is the shared ping padding buffer (write-never data).
	pingPad []byte

	// trace is the event-trace shard, nil unless tracing is enabled
	// (Network.EnableTrace): the disabled path costs one nil check.
	trace *obs.Shard
}

// recycleMessage returns a fully handled single-recipient message to its
// pool. Only types that handlers never retain are pooled: pings and pongs
// are read for their nonce, GETDATAs and INVs for their item list, and TX
// and BLOCK wrappers for their payload pointer (the payload itself is
// shared and immutable; the wrapper is not retained). Everything the
// topology layer might hold onto stays unpooled.
func (dc *dispatchCtx) recycleMessage(msg wire.Message) {
	switch m := msg.(type) {
	case *wire.MsgPing:
		m.Pad = nil
		dc.pingPool = append(dc.pingPool, m)
	case *wire.MsgPong:
		dc.pongPool = append(dc.pongPool, m)
	case *wire.MsgGetData:
		m.Items = m.Items[:0]
		dc.getDataPool = append(dc.getDataPool, m)
	case *wire.MsgInv:
		m.Items = m.Items[:0]
		dc.invPool = append(dc.invPool, m)
	case *wire.MsgTx:
		m.Tx = nil
		dc.txMsgPool = append(dc.txMsgPool, m)
	case *wire.MsgBlock:
		m.Block = nil
		dc.blockMsgPool = append(dc.blockMsgPool, m)
	}
}

// newPing pops a pooled ping (or allocates) with the shared pad.
func (dc *dispatchCtx) newPing(nonce uint64, padBytes int) *wire.MsgPing {
	pad := dc.sharedPad(padBytes)
	if last := len(dc.pingPool) - 1; last >= 0 {
		m := dc.pingPool[last]
		dc.pingPool = dc.pingPool[:last]
		m.Nonce, m.Pad = nonce, pad
		return m
	}
	return &wire.MsgPing{Nonce: nonce, Pad: pad}
}

// newPong pops a pooled pong (or allocates).
func (dc *dispatchCtx) newPong(nonce uint64) *wire.MsgPong {
	if last := len(dc.pongPool) - 1; last >= 0 {
		m := dc.pongPool[last]
		dc.pongPool = dc.pongPool[:last]
		m.Nonce = nonce
		return m
	}
	return &wire.MsgPong{Nonce: nonce}
}

// newGetData pops a pooled, zero-length GETDATA (or allocates); callers
// append their wanted items to Items.
func (dc *dispatchCtx) newGetData() *wire.MsgGetData {
	if last := len(dc.getDataPool) - 1; last >= 0 {
		m := dc.getDataPool[last]
		dc.getDataPool = dc.getDataPool[:last]
		return m
	}
	return &wire.MsgGetData{}
}

// newInv pops a pooled single-item INV (or allocates).
func (dc *dispatchCtx) newInv(t wire.InvType, h chain.Hash) *wire.MsgInv {
	if last := len(dc.invPool) - 1; last >= 0 {
		m := dc.invPool[last]
		dc.invPool = dc.invPool[:last]
		m.Items = append(m.Items, wire.InvVect{Type: t, Hash: h})
		return m
	}
	return &wire.MsgInv{Items: []wire.InvVect{{Type: t, Hash: h}}}
}

// newTxMsg pops a pooled TX wrapper (or allocates).
func (dc *dispatchCtx) newTxMsg(tx *chain.Tx) *wire.MsgTx {
	if last := len(dc.txMsgPool) - 1; last >= 0 {
		m := dc.txMsgPool[last]
		dc.txMsgPool = dc.txMsgPool[:last]
		m.Tx = tx
		return m
	}
	return &wire.MsgTx{Tx: tx}
}

// newBlockMsg pops a pooled BLOCK wrapper (or allocates).
func (dc *dispatchCtx) newBlockMsg(b *chain.Block) *wire.MsgBlock {
	if last := len(dc.blockMsgPool) - 1; last >= 0 {
		m := dc.blockMsgPool[last]
		dc.blockMsgPool = dc.blockMsgPool[:last]
		m.Block = b
		return m
	}
	return &wire.MsgBlock{Block: b}
}

// sharedPad returns a zeroed scratch slice of the given size, grown once
// and shared by every ping in flight.
func (dc *dispatchCtx) sharedPad(size int) []byte {
	if size > len(dc.pingPad) {
		dc.pingPad = make([]byte, size)
	}
	return dc.pingPad[:size]
}

// newDelivery pops a pooled payload (or allocates on first use). It is
// written to stay within the inlining budget: deliver is its one caller.
func (dc *dispatchCtx) newDelivery(n *Network, src *Node, srcPos int32, base time.Duration, dst *Node, msg wire.Message) *delivery {
	var d *delivery
	if last := len(dc.deliveryPool) - 1; last >= 0 {
		d = dc.deliveryPool[last]
		dc.deliveryPool = dc.deliveryPool[:last]
	} else {
		d = &delivery{net: n}
	}
	d.src, d.srcSlot, d.srcPos, d.base = src.id, src.slot, srcPos, base
	d.dstSlot, d.dstID, d.dstEpoch, d.msg = dst.slot, dst.id, dst.tabEpoch, msg
	return d
}

// newVerifyJob pops a pooled payload (or allocates on first use).
func (dc *dispatchCtx) newVerifyJob(n *Network, slot int32, id, from NodeID, tx *chain.Tx, block *chain.Block) *verifyJob {
	if last := len(dc.verifyPool) - 1; last >= 0 {
		j := dc.verifyPool[last]
		dc.verifyPool = dc.verifyPool[:last]
		j.slot, j.id, j.from, j.tx, j.block = slot, id, from, tx, block
		return j
	}
	return &verifyJob{net: n, slot: slot, id: id, from: from, tx: tx, block: block}
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
