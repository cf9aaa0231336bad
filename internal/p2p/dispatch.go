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
// index resolved again from the object's hash (delivery.hash). A ping is
// when it left (word), and it also reads base, the baseline of the link it
// travels; under a tracer its pong carries both back, so the pinger keeps
// nothing while they travel and matches nothing when they return, and
// untraced the pong travels as a ticket (pongTicket). Anything else — what
// Send carries, JOIN and CLUSTER — stays a wire.Message, in the arena's side
// column at the record's index, and cmd is zero. A verification wait
// (Network.verified) is a record too: the sender, the verifying node and the
// object.
//
// The record is one cache line (TestDeliveryIsOneCacheLine).
type delivery struct {
	src, dst *Node
	tx       *chain.Tx
	block    *chain.Block
	base     time.Duration
	word     uint64 // a ping's or pong's send time
	hi       int32  // dense hash index
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
// in-flight record arena, the INV ticket pool, traffic counters and the
// trace shard. The network owns exactly one (Network.dc) and every
// event runs on the goroutine driving the scheduler, so none of it is
// shared.
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

	// tickets is where nodes take their ticket slots from, for the INVs that
	// leave as tickets and not as records (Node.lazyInv), and lazyAt when the
	// last of this generation's lands: once the clock is past it every one
	// has passed, and a ResetInventory has nothing to redeem.
	tickets ticketPool
	lazyAt  sim.Time

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

// ticketPool hands out runs of ticket slots, front to back through chunks it
// keeps, and takes them all back at once (reset, at every ResetInventory): it
// grows to one flood's worth and steady state allocates nothing.
type ticketPool struct {
	chunks     [][]sim.Ticket
	next, used int // the chunk in use, and how much of it is taken
}

// ticketChunk is how many slots the pool grows by: a few hundred nodes' worth.
const ticketChunk = 4096

// take returns a run of n empty slots, growing the pool by a chunk when the
// one in use cannot hold the run.
func (p *ticketPool) take(n int) []sim.Ticket {
	for {
		if p.next == len(p.chunks) {
			p.chunks = append(p.chunks, make([]sim.Ticket, max(n, ticketChunk)))
		}
		if chunk := p.chunks[p.next]; p.used+n <= len(chunk) {
			run := chunk[p.used : p.used+n : p.used+n]
			p.used += n
			clear(run)
			return run
		}
		p.next, p.used = p.next+1, 0
	}
}

// reset frees every run handed out; whoever held one must not use it again.
func (p *ticketPool) reset() { p.next, p.used = 0, 0 }

// empty reports whether no run has been handed out since the last reset.
func (p *ticketPool) empty() bool { return p.next == 0 && p.used == 0 }

// probeSet is one ProbeN call: the prober, its targets in list order, and
// how many of its rounds (Network.probeRound) are still to run. A target is
// resolved once, when ProbeN runs: the node its ID named (nil for nobody)
// and the pair's link baseline. The sets are the network's (Network.probes), recycled with their
// target slices once the last round has run.
type probeSet struct {
	src     *Node
	targets []probeTarget
	left    int
}

// probeTarget is one target of a probeSet.
type probeTarget struct {
	dst  *Node
	base time.Duration
}

// pongTicket is a pong on its way to its prober while no tracer is
// attached: its place in the event order, the target that answered and the
// round trip the prober will report once the place has passed
// (Node.FoldPongs). It is what a pong record would have told handlePong.
type pongTicket struct {
	sim.Ticket
	from *Node
	rtt  time.Duration
}

// pongTable holds the pong tickets on their way, per prober, in landing
// order. bySlot[s]-1 indexes lists for the prober in node slot s, zero for
// one with none; lists whose prober has none in flight wait on free for the
// next prober to take. At every moment at most one more of the waiting
// lists keeps its capacity than there are lists in use — so a lone
// prober's rounds reuse one list, and a burst of probers that winds down
// lets the lists it grew go. The ones that keep their capacity are the
// last spare of free, taken first. Only probers with pongs in flight hold
// a list, so a node costs nothing for it and a network that never probes
// allocates nothing. One that has stopped probing keeps bySlot and one
// spare list.
type pongTable struct {
	bySlot []int32
	lists  [][]pongTicket
	free   []int32
	spare  int // how many lists at the end of free keep their capacity
}

// of returns the pending tickets of the prober in slot, nil for none.
func (pt *pongTable) of(slot int32) []pongTicket {
	if int(slot) >= len(pt.bySlot) || pt.bySlot[slot] == 0 {
		return nil
	}
	return pt.lists[pt.bySlot[slot]-1]
}

// add files t for the prober in slot, in landing order among its others.
// A new ticket lands after most of the ones in flight, so the search runs
// from the back.
func (pt *pongTable) add(slot int32, t pongTicket) {
	if int(slot) >= len(pt.bySlot) || pt.bySlot[slot] == 0 {
		pt.open(slot)
	}
	li := pt.bySlot[slot] - 1
	list := append(pt.lists[li], t)
	i := len(list) - 1
	for ; i > 0 && t.Before(list[i-1].Ticket); i-- {
		list[i] = list[i-1]
	}
	list[i] = t
	pt.lists[li] = list
}

// open gives the prober in slot a list, a free one or a new one: where the
// table grows, once per prober that has none. It stays out of line, so
// add's own body is the append.
//
//go:noinline
func (pt *pongTable) open(slot int32) {
	if int(slot) >= len(pt.bySlot) {
		pt.bySlot = append(pt.bySlot, make([]int32, int(slot)+1-len(pt.bySlot))...)
	}
	var li int32
	if last := len(pt.free) - 1; last >= 0 {
		li = pt.free[last]
		pt.free = pt.free[:last]
		pt.spare = max(pt.spare-1, 0)
	} else {
		li = int32(len(pt.lists))
		pt.lists = append(pt.lists, nil)
	}
	if pt.lists[li] == nil {
		pt.lists[li] = make([]pongTicket, 0, pongListCap)
	}
	pt.bySlot[slot] = li + 1
}

// drop removes the first k tickets of the prober in slot, releasing its
// list when that empties it.
func (pt *pongTable) drop(slot int32, k int) {
	li := pt.bySlot[slot] - 1
	list := pt.lists[li]
	rest := copy(list, list[k:])
	clear(list[rest:]) // a free ticket must not keep a departed target reachable
	pt.lists[li] = list[:rest]
	if rest == 0 {
		pt.bySlot[slot] = 0
		pt.free = append(pt.free, li)
		pt.spare++
		// One list fewer in use allows one spare fewer, and this list is one
		// more: let the oldest spares go until the bound holds again.
		for inUse := len(pt.lists) - len(pt.free); pt.spare > inUse+1; pt.spare-- {
			pt.lists[pt.free[len(pt.free)-pt.spare]] = nil
		}
	}
}

// pongListCap is the capacity a prober's list starts at: room for what a
// BCBPT join has in flight at most, three rounds of pongs from its 16
// candidates.
const pongListCap = 64
