package p2p

import (
	"encoding/binary"
	"errors"
	"slices"
	"time"

	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// hashPrefix condenses a content hash into the 8-byte payload word a
// trace event carries — enough to correlate events of one flood.
func hashPrefix(h chain.Hash) uint64 { return binary.LittleEndian.Uint64(h[:8]) }

// peerEntry is one stable adjacency slot on one side of an edge. Slots
// are positions in Node.peerTab: a peer keeps its position for the life
// of the connection, freed positions are recycled LIFO, and per-hash
// holder bitsets index by position — so "peer P is known to have hash H"
// is one bit, not a map entry.
//
// The entry is the single owner of per-connection state: besides the
// peer it names, it holds the edge's link baseline and rpos, this node's
// position in the peer's own table. Both are fixed when two nodes
// connect, so a send through the entry needs no map lookup and the
// record it puts in flight tells the receiver where its sender sits.
//
// The entry is 16 bytes (TestPeerEntryIs16Bytes): the peer itself, whose
// ID is read through it, and one word packing the rest — the baseline
// (latency.Link.Base) in bits 17–63, rpos in bits 1–16 and whether this
// side initiated the connection in bit 0. The baseline is zero until
// first use: Network.edgeLink resolves it once per edge and fills both
// sides. A free position has no node, and its word links the node's
// free list (Node.freeHead), so nothing about a connection outlives the
// connection.
type peerEntry struct {
	node *Node
	word uint64
}

// The layout of peerEntry.word. rpos takes 16 bits, and NewNetwork caps
// MaxPeers at MaxInt16; the baseline takes the other 47, about 39 hours
// of nanoseconds, and NewNetwork refuses latency parameters that could
// draw a longer one.
const (
	entryOutbound  = 1
	entryRposShift = 1
	entryBaseShift = 17
	entryRposMask  = 1<<(entryBaseShift-entryRposShift) - 1
	// maxEntryBase is the largest baseline a peer entry holds.
	maxEntryBase = time.Duration(1<<(64-entryBaseShift) - 1)
)

// packEntry packs a peer entry's word. base must lie in [0, maxEntryBase]
// and rpos in [0, MaxInt16].
func packEntry(base time.Duration, rpos int32, outbound bool) uint64 {
	w := uint64(base)<<entryBaseShift | uint64(rpos)<<entryRposShift
	if outbound {
		w |= entryOutbound
	}
	return w
}

// base returns the edge's link baseline, zero while unresolved.
func (e *peerEntry) base() time.Duration { return time.Duration(e.word >> entryBaseShift) }

// rpos returns this node's position in the peer's table.
func (e *peerEntry) rpos() int32 { return int32(e.word >> entryRposShift & entryRposMask) }

// outbound reports whether this side initiated the connection.
func (e *peerEntry) outbound() bool { return e.word&entryOutbound != 0 }

// invEntry is one hash's bookkeeping on one node, addressed by the
// network's dense hash index. Every marker is a generation stamp: a
// field equals the network's current inventory generation or it does
// not exist, so ResetInventory is a single generation bump instead of a
// per-node map rebuild.
//
// at is two times that are never both wanted, which keeps the entry at 32
// bytes: once the hash is accepted, when that was (FirstSeen); while the
// node has not even asked for it, when the earliest INV event queued for it
// lands (lazyInv) — a question nobody puts to a node that has.
type invEntry struct {
	seenGen   uint32 // hash accepted, at at
	reqGen    uint32 // GETDATA in flight
	txGen     uint32 // the node holds the transaction Network.objTx[hi]
	blockGen  uint32 // the node holds the block Network.objBlock[hi]
	holderGen uint32 // holder bitset words for this hash are live
	firstGen  uint32 // not heard of yet, and an INV event is queued to land at at, none earlier
	at        sim.Time
}

// spillFact records "holder is known to have the hash at dense index
// hi" for a holder that has no adjacency position on this node — a
// sender that disconnected with the message in flight, or a peer whose
// edge was torn down after it announced. The map is empty on the flood
// hot path (a length check guards every use) and is lazily invalidated
// by generation, so it costs nothing when churn is off.
type spillFact struct {
	hi     int32
	holder NodeID
}

// nodeInv is one node's inventory state, laid out as flat arrays keyed
// by the network's dense hash index. entries grows to the number of
// distinct hashes seen this generation (one or two in a measurement run);
// holderBits holds peerWords() words per hash — one bit per adjacency
// position. The objects themselves are not here: a dense index names one
// content hash in a generation, so every node that holds it holds the same
// object, which the network keeps once (Network.objTx, Network.objBlock)
// and an entry's txGen/blockGen stamp says this node holds.
//
// lazy holds the INVs on their way here that are not events (Node.lazyInv):
// one ticket per adjacency position, at the sender's, all for the hash at
// dense index lazyHi, and the node's while lazyGen is the current generation
// — the zero Ticket is none. A ticket that has passed is the holder bit it
// stands for; settleLazy makes it that bit, or the INV event after all,
// before the position changes hands or the generation turns. The slots are a
// run of the network's per-generation pool (ticketPool), taken
// when a lazy INV first reaches the node in a generation, so a network that
// never floods does not pay for them.
type nodeInv struct {
	entries    []invEntry
	holderBits []uint64
	spill      map[spillFact]struct{}
	lazy       []sim.Ticket
	spillGen   uint32
	lazyGen    uint32
	lazyHi     int32
}

// lazyAt returns the node's ticket slot for adjacency position pos under
// hash index hi, or nil if it has none: the slots are another hash's or
// another generation's, or were taken when the table was shorter.
func (nd *Node) lazyAt(hi, pos int32) *sim.Ticket {
	inv := &nd.inv
	if inv.lazyHi != hi || inv.lazyGen != nd.net.invGen || int(pos) >= len(inv.lazy) {
		return nil
	}
	return &inv.lazy[pos]
}

// Node is one simulated Bitcoin peer. Hot state lives in flat slices —
// adjacency in stable peerTab positions at 16 bytes a peer, inventory in
// generation-stamped arrays keyed by dense hash index — so a node costs a
// few hundred bytes instead of four maps, and a 100k-node network floods
// without touching the allocator.
//
// A node keeps only what differs between nodes. What it shares with others
// lives once, in the network: the names of the place it is in (place
// indexes Network.places) and the objects it relays (Network.objTx,
// Network.objBlock). The struct is 192 bytes, a size class of its own
// (TestNodeIs192Bytes); a field that copies a shared fact onto every node
// breaks the pin.
type Node struct {
	// What a receive reads comes first and together — identity, the table
	// epoch and table that place the sender, the inventory arrays its INV
	// lands in — then what a send adds, then the cold rest.
	id   NodeID
	slot int32
	// tabEpoch counts removePeer calls: while it stands still, every
	// position of peerTab names the peer it named, so a delivery that left
	// under the current epoch (delivery.dstEpoch) knows its sender's
	// position without a look at the table. It would take 2^32 removals at
	// this node within one message's flight for a stale record to see its
	// own epoch again.
	tabEpoch uint32
	net      *Network
	// peerTab is the stable-position adjacency table (a nil node marks a
	// free position), walked in position order by every loop over the
	// peers; only Peers sorts what it collects.
	peerTab []peerEntry
	// inv is the flat inventory replacing the known/peerInv/requested/
	// txData/blockData maps of the reference layout.
	inv nodeInv

	// sendSeq counts this node's deliver calls. It keys the per-send
	// delivery RNG; being per-sender, it does not depend on what other
	// nodes send in between.
	sendSeq uint64
	// uplinkFreeAt is when the node's serial uplink finishes its current
	// transmission; Network.deliver queues sends behind it.
	uplinkFreeAt sim.Time
	// freeHead is one more than the most recently freed position of
	// peerTab, 0 when none is free; each free entry's word holds the same
	// for the position freed before it, so positions are reused LIFO with
	// no list beside the table.
	freeHead int32
	nPeers   int32
	nOut     int32
	// place indexes the network's table of place names (Network.places):
	// the node's City, Country and Region, shared with every node there.
	place int32

	// coord is where the node is, what its links are drawn from.
	coord geo.Coord
}

// now returns the current virtual time.
func (nd *Node) now() sim.Time { return nd.net.sched.Now() }

// Send transmits a wire message to any live node, addressed by ID: the
// overlay's "any host can dial any other". Topology protocols use it for
// their extension messages, JOIN and CLUSTER, which land at
// Network.OnMessage; the message is silently dropped if either end is gone
// (matching a TCP RST on a dead host). The pair's link is drawn per send
// (Network.link), not stored. Relay traffic between peers does not come
// this way — it has no wire.Message to send (sendTo) — nor do pings and
// pongs (ping, pong).
func (nd *Node) Send(to NodeID, msg wire.Message) {
	n := nd.net
	dst, ok := n.nodes[to]
	if !ok || !nd.live() {
		n.dc.stats.Dropped++
		return
	}
	n.deliver(nd, dst, -1, n.link(nd, dst).Base(), msg.Command(), wire.EncodedSize(msg), msg, -1)
}

// sendTo puts a relay message of the given command and framed size in
// flight and returns its record for the caller to say what it carries
// (Network.deliver). With pos >= 0, the receiver's adjacency position
// here, it is reached through the peer entry — destination, link and
// reverse position all read from it, no map touched. With pos < 0 it is
// to, a sender that is no longer a peer: the pair's link is drawn for the
// send (Network.link), and the message is dropped if either end is gone (a
// removed node has no peers, so only this branch can see one).
func (nd *Node) sendTo(pos int32, to *Node, cmd wire.Command, size int) *delivery {
	n := nd.net
	if pos >= 0 {
		return n.deliver(nd, nd.peerTab[pos].node, pos, 0, cmd, size, nil, -1)
	}
	if !to.live() || !nd.live() {
		n.dc.stats.Dropped++
		return &n.dc.lost
	}
	return n.deliver(nd, to, -1, n.link(nd, to).Base(), cmd, size, nil, -1)
}

// live reports whether the node is still in the network.
func (nd *Node) live() bool { return nd.net.slots[nd.slot] == nd }

// ID returns the node's identifier.
func (nd *Node) ID() NodeID { return nd.id }

// Slot returns the node's dense index in the network's node table,
// stable for the node's lifetime and always < Network.SlotCap().
// Measurement hooks key flat per-node arrays by it.
func (nd *Node) Slot() int { return int(nd.slot) }

// Location returns the node's (self-reported) geographic placement: its
// coordinate, with the names of its place read from the network's table.
func (nd *Node) Location() geo.Location {
	p := &nd.net.places[nd.place]
	return geo.Location{Coord: nd.coord, City: p.City, Country: p.Country, Region: p.Region}
}

// --- adjacency ---

// addPeer installs peer at a stable position and returns it; connect
// writes the entry's word, rpos and outbound, once both sides have their
// positions. Recycled
// positions may carry holder bits or spill facts from an earlier peer,
// so both are reconciled here: stale bits for the position are cleared,
// and spill facts about this peer migrate into the bitset.
func (nd *Node) addPeer(peer *Node, outbound bool) int32 {
	var pos int32
	if nd.freeHead > 0 {
		pos = nd.freeHead - 1
		nd.freeHead = int32(nd.peerTab[pos].word)
	} else {
		pos = int32(len(nd.peerTab))
		nd.peerTab = append(nd.peerTab, peerEntry{})
	}
	nd.peerTab[pos] = peerEntry{node: peer}
	nd.nPeers++
	if outbound {
		nd.nOut++
	}
	gen := nd.net.invGen
	w := nd.net.peerWords
	for hi := range nd.inv.entries {
		if nd.inv.entries[hi].holderGen == gen {
			nd.inv.holderBits[int32(hi)*w+pos/64] &^= 1 << uint(pos%64)
		}
	}
	if nd.inv.spillGen == gen && len(nd.inv.spill) > 0 {
		for fact := range nd.inv.spill {
			if fact.holder == peer.id {
				nd.setHolderBit(fact.hi, pos)
				delete(nd.inv.spill, fact)
			}
		}
	}
	return pos
}

// removePeer tears down the adjacency entry for peer, preserving holder
// facts about the departing peer in the spill set — the reference
// semantics remember that a disconnected peer holds a hash, and so a
// reconnect within the same generation must too. A fact is kept only
// while both ends are live: addPeer, the one reader of the spill set,
// asks about the peer being added, and a removed node is never added
// again (its ID is never reused), so when RemoveNode — which clears the
// departing node's slot first — tears an edge down, neither end's facts
// about the other could ever be read.
func (nd *Node) removePeer(peer *Node) {
	pos := nd.peerPos(peer)
	if pos < 0 {
		return
	}
	nd.settleLazy(pos)
	keep := nd.live() && peer.live()
	gen := nd.net.invGen
	w := nd.net.peerWords
	for hi := range nd.inv.entries {
		if nd.inv.entries[hi].holderGen != gen {
			continue
		}
		word := &nd.inv.holderBits[int32(hi)*w+pos/64]
		if *word&(1<<uint(pos%64)) != 0 {
			*word &^= 1 << uint(pos%64)
			if keep {
				nd.spillAdd(int32(hi), peer.id)
			}
		}
	}
	if nd.peerTab[pos].outbound() {
		nd.nOut--
	}
	nd.peerTab[pos] = peerEntry{word: uint64(nd.freeHead)}
	nd.freeHead = pos + 1
	nd.tabEpoch++
	nd.nPeers--
}

// peerPos returns peer's adjacency position, or -1 if not a peer: a
// linear scan of a table that is at most MaxPeers entries and usually ~16,
// comparing pointers. The relay path does not call it — sends go through
// positions and records in flight carry the sender's — so it serves
// connect/disconnect and the last step of senderPos, for a message that a
// removePeer at the receiver overtook and whose position no longer names
// its sender.
func (nd *Node) peerPos(peer *Node) int32 {
	for i := range nd.peerTab {
		if nd.peerTab[i].node == peer {
			return int32(i)
		}
	}
	return -1
}

// peerByID returns the peer with the given ID, or nil if none: the same
// scan as peerPos, for callers that hold an ID.
func (nd *Node) peerByID(id NodeID) *Node {
	for i := range nd.peerTab {
		if p := nd.peerTab[i].node; p != nil && p.id == id {
			return p
		}
	}
	return nil
}

// Peers returns the connected peer IDs in ascending order. The slice is
// the caller's to keep.
func (nd *Node) Peers() []NodeID {
	out := make([]NodeID, 0, nd.nPeers)
	nd.EachPeer(func(id NodeID) bool {
		out = append(out, id)
		return true
	})
	slices.Sort(out)
	return out
}

// EachPeer calls f for every connected peer in table-position order,
// stopping early if f returns false. Unlike Peers it allocates and sorts
// nothing — topology maintenance loops that count or scan neighbours per
// candidate use it on their hot paths, and what they compute does not
// depend on the order. f must not connect or disconnect peers.
func (nd *Node) EachPeer(f func(NodeID) bool) {
	for i := range nd.peerTab {
		if p := nd.peerTab[i].node; p != nil && !f(p.id) {
			return
		}
	}
}

// NumPeers returns the number of connections.
func (nd *Node) NumPeers() int { return int(nd.nPeers) }

// Outbound returns the number of connections this node initiated.
func (nd *Node) Outbound() int { return int(nd.nOut) }

// IsPeer reports whether id is a connected peer.
func (nd *Node) IsPeer(id NodeID) bool { return nd.peerByID(id) != nil }

// --- inventory primitives ---

// invEnsure grows the entry array to cover dense hash index hi and
// returns the entry. Growth is amortised and bounded by the number of
// distinct hashes in one inventory generation.
func (nd *Node) invEnsure(hi int32) *invEntry {
	for int(hi) >= len(nd.inv.entries) {
		nd.inv.entries = append(nd.inv.entries, invEntry{})
	}
	return &nd.inv.entries[hi]
}

// entryFor returns the live entry for hash h without assigning a dense
// index, or nil if h has no index or no entry this generation.
func (nd *Node) entryFor(h chain.Hash) *invEntry {
	hi, ok := nd.net.findHash(h)
	if !ok || int(hi) >= len(nd.inv.entries) {
		return nil
	}
	return &nd.inv.entries[hi]
}

// seen reports whether the node accepted hash index hi this generation.
func (nd *Node) seenIdx(hi int32) bool {
	return int(hi) < len(nd.inv.entries) && nd.inv.entries[hi].seenGen == nd.net.invGen
}

// FirstSeen returns when the node first accepted the hash, if ever
// (within the current inventory generation).
func (nd *Node) FirstSeen(h chain.Hash) (sim.Time, bool) {
	if e := nd.entryFor(h); e != nil && e.seenGen == nd.net.invGen {
		return e.at, true
	}
	return 0, false
}

// txFor returns the transaction at hi, if the node holds it this
// generation.
func (nd *Node) txFor(hi int32) (*chain.Tx, bool) {
	if int(hi) < len(nd.inv.entries) && nd.inv.entries[hi].txGen == nd.net.invGen {
		return nd.net.objTx[hi], true
	}
	return nil, false
}

// storeTx records that the node holds tx, the transaction at hi. The first
// node to store it files it in the network's table; every later one stores
// the same object, the one transaction the hash names.
func (nd *Node) storeTx(hi int32, tx *chain.Tx) {
	e := nd.invEnsure(hi)
	n := nd.net
	for int(hi) >= len(n.objTx) {
		n.objTx = append(n.objTx, nil)
	}
	n.objTx[hi] = tx
	e.txGen = n.invGen
}

// blockFor returns the block at hi, if the node holds it this generation.
func (nd *Node) blockFor(hi int32) (*chain.Block, bool) {
	if int(hi) < len(nd.inv.entries) && nd.inv.entries[hi].blockGen == nd.net.invGen {
		return nd.net.objBlock[hi], true
	}
	return nil, false
}

// storeBlock records that the node holds b, the block at hi (storeTx).
func (nd *Node) storeBlock(hi int32, b *chain.Block) {
	e := nd.invEnsure(hi)
	n := nd.net
	for int(hi) >= len(n.objBlock) {
		n.objBlock = append(n.objBlock, nil)
	}
	n.objBlock[hi] = b
	e.blockGen = n.invGen
}

// holderWords returns hi's live holder bitset, zeroing recycled words on
// first touch in a generation.
func (nd *Node) holderWords(hi int32) []uint64 {
	e := nd.invEnsure(hi)
	w := nd.net.peerWords
	for int(hi+1)*int(w) > len(nd.inv.holderBits) {
		nd.inv.holderBits = append(nd.inv.holderBits, 0)
	}
	words := nd.inv.holderBits[hi*w : (hi+1)*w]
	if gen := nd.net.invGen; e.holderGen != gen {
		for i := range words {
			words[i] = 0
		}
		e.holderGen = gen
	}
	return words
}

// setHolderBit marks adjacency position pos as holding hash index hi.
func (nd *Node) setHolderBit(hi, pos int32) {
	nd.holderWords(hi)[pos/64] |= 1 << uint(pos%64)
}

// holderHas reports whether adjacency position pos is known to hold hi: its
// bit is set, or an INV for hi that travelled as a ticket has landed from it
// — by the order of the queue, the event running now included.
func (nd *Node) holderHas(hi, pos int32) bool {
	if int(hi) >= len(nd.inv.entries) {
		return false
	}
	if w := nd.net.peerWords; nd.inv.entries[hi].holderGen == nd.net.invGen && nd.inv.holderBits[hi*w+pos/64]&(1<<uint(pos%64)) != 0 {
		return true
	}
	t := nd.lazyAt(hi, pos)
	return t != nil && *t != (sim.Ticket{}) && nd.net.sched.Passed(*t)
}

// lazyInv decides whether the INV for the hash at dense index hi that the
// peer at adjacency position pos has just sent, due to land after delay, can
// travel as a ticket and not as an event, and takes the ticket if so. It can
// when landing would do nothing but record that the sender holds the hash:
// this node has accepted the object, has a GETDATA out for it, or is owed an
// INV event for it that lands no later (firstGen, which this stamps when it
// sends the earliest INV yet down the event path). The node being gone by
// then, the edge torn down or the generation turned are each settled where
// they happen (settleLazy), so what holds now holds at landing. One hash owns
// the node's slots per generation: a second one in flight beside it — a
// conflicting transaction, a block — takes the event path.
func (nd *Node) lazyInv(pos, hi int32, delay time.Duration) bool {
	n := nd.net
	gen := n.invGen
	at := n.sched.Now() + max(delay, 0)
	if e := nd.invEnsure(hi); e.seenGen != gen && e.reqGen != gen && (e.firstGen != gen || at < e.at) {
		e.firstGen, e.at = gen, at
		return false
	}
	slot := nd.lazyAt(hi, pos)
	if slot == nil {
		if nd.inv.lazyGen == gen && nd.inv.lazyHi != hi {
			return false
		}
		nd.claimLazy(hi)
		slot = nd.lazyAt(hi, pos)
	}
	*slot = n.sched.Reserve(delay)
	n.dc.lazyAt = max(n.dc.lazyAt, at)
	return true
}

// claimLazy gives the node one ticket slot per adjacency position, for hash
// index hi under the current generation. Slots it held under an older
// generation are dead — ResetInventory redeemed what had not passed, holder
// facts do not outlive their generation, and the pool started over — and
// slots it holds under this one, taken when its table was shorter, move.
// Cold by construction: once per node and flood.
//
//go:noinline
func (nd *Node) claimLazy(hi int32) {
	inv := &nd.inv
	slots := nd.net.dc.tickets.take(len(nd.peerTab))
	if gen := nd.net.invGen; inv.lazyGen == gen {
		copy(slots, inv.lazy)
	} else {
		inv.lazyHi, inv.lazyGen = hi, gen
	}
	inv.lazy = slots
}

// settleLazy resolves the ticket at adjacency position pos, if there is one
// of this generation, before the position's holder fact is moved or dies: a
// ticket that has passed becomes the bit it stands for, one that has not
// becomes the INV event it stands for, in its place in the queue — a record
// addressed by ID, so that landing finds its sender wherever it then is, or
// nowhere, and a receiver that is gone counts it Dropped. The object it
// announces is in the sender's inventory, which announced it.
func (nd *Node) settleLazy(pos int32) {
	n, hi := nd.net, nd.inv.lazyHi
	slot := nd.lazyAt(hi, pos)
	if slot == nil || *slot == (sim.Ticket{}) {
		return
	}
	t := *slot
	*slot = sim.Ticket{}
	if n.sched.Passed(t) {
		nd.setHolderBit(hi, pos)
		return
	}
	src := nd.peerTab[pos].node
	tx, _ := src.txFor(hi)
	block, _ := src.blockFor(hi)
	idx := n.dc.newFlight()
	n.dc.flight[idx] = delivery{src: src, dst: nd, srcPos: -1, cmd: wire.CmdInv, tx: tx, block: block, hi: hi, gen: n.invGen}
	n.sched.Redeem(t, n.arriveTag, idx)
}

// spillAdd records a holder fact for a holder without an adjacency
// position, lazily resetting a stale-generation spill set.
func (nd *Node) spillAdd(hi int32, holder NodeID) {
	if gen := nd.net.invGen; nd.inv.spillGen != gen {
		clear(nd.inv.spill)
		nd.inv.spillGen = gen
	}
	if nd.inv.spill == nil {
		nd.inv.spill = make(map[spillFact]struct{}, 4)
	}
	nd.inv.spill[spillFact{hi: hi, holder: holder}] = struct{}{}
}

// markPeerHas records that peer (at adjacency position pos, or -1 for a
// non-peer) is known to hold the hash at dense index hi. This is the
// standard Bitcoin relay optimisation: never announce a hash back to
// whoever announced or sent it to us.
func (nd *Node) markPeerHas(peer *Node, pos, hi int32) {
	if pos < 0 {
		nd.spillAdd(hi, peer.id)
		return
	}
	nd.setHolderBit(hi, pos)
}

// --- transaction origination and relay (Fig. 1) ---

// SubmitTx injects a locally created transaction: the node validates it
// and announces it to all peers, exactly as if a wallet had handed it in.
func (nd *Node) SubmitTx(tx *chain.Tx) error {
	if err := nd.acceptTx(tx, nil); err != nil {
		return err
	}
	return nil
}

// errConflict rejects a transaction that spends an output which a
// transaction the node already holds spends.
var errConflict = errors.New("p2p: transaction conflicts with one the node holds")

// acceptTx validates and records a transaction, then announces it to
// every peer but from, the peer it came from — nil when locally submitted.
//
// Of two transactions spending the same output, a node keeps the one it
// accepted first and rejects the other, as a Bitcoin node's mempool does:
// the double-spend race is decided node by node in arrival order. A node
// holds a transaction iff it has seen its hash this generation, so the rule
// needs no per-node state, only the network's list of the spenders of each
// output. A coinbase spends nothing: the flood path pays an empty loop.
func (nd *Node) acceptTx(tx *chain.Tx, from *Node) error {
	id := tx.ID()
	if e := nd.entryFor(id); e != nil && e.seenGen == nd.net.invGen {
		return nil
	}
	if err := tx.CheckWellFormed(); err != nil {
		return err
	}
	for i := range tx.Inputs {
		// Any spender the node has seen is another transaction: had it seen
		// this one, it would have returned above.
		for _, s := range nd.net.spenders[tx.Inputs[i].PrevOut] {
			if nd.seenIdx(s) {
				return errConflict
			}
		}
	}
	hi := nd.net.hashSlot(id)
	for i := range tx.Inputs {
		op := tx.Inputs[i].PrevOut
		if !slices.Contains(nd.net.spenders[op], hi) {
			nd.net.spenders[op] = append(nd.net.spenders[op], hi)
		}
	}
	e := nd.invEnsure(hi)
	e.seenGen = nd.net.invGen
	e.at = nd.now()
	nd.storeTx(hi, tx)
	e.reqGen = 0
	if tr := nd.net.dc.trace; tr != nil {
		tr.Record(obs.Event{At: nd.now(), Kind: obs.KindFirstSeen, P1: uint64(nd.id), P2: hashPrefix(id)})
	}
	if nd.net.OnTxFirstSeen != nil {
		nd.net.OnTxFirstSeen(nd, id, nd.now())
	}
	nd.announce(hi, tx, nil, from)
	return nil
}

// announce offers the object at dense index hi — tx or block, the other
// nil — to every peer but except and those known to have it, as an INV
// (Fig. 1).
// Peers are offered in peerTab position order: each send advances the
// sender's keyed delivery sequence, so the order must be reproducible, and a
// position is — it is held for the life of a connection, and which one a
// connection takes (the most recently freed, else a new one at the end) is
// fixed by the connect/disconnect sequence.
func (nd *Node) announce(hi int32, tx *chain.Tx, block *chain.Block, except *Node) {
	gen := nd.net.invGen
	for i := range nd.peerTab {
		p, pos := nd.peerTab[i].node, int32(i)
		if p == nil || p == except || nd.holderHas(hi, pos) {
			continue
		}
		d := nd.net.deliver(nd, p, pos, 0, wire.CmdInv, invSize, nil, hi)
		d.tx, d.block, d.hi, d.gen = tx, block, hi, gen
	}
}

// sendTx sends the full transaction at dense index hi (sendTo).
func (nd *Node) sendTx(pos int32, to *Node, tx *chain.Tx, hi int32) {
	d := nd.sendTo(pos, to, wire.CmdTx, frameLen+tx.Size())
	d.tx, d.hi, d.gen = tx, hi, nd.net.invGen
}

// senderPos turns the sender position a record carried into from's
// adjacency position here, or -1 if from is not a peer. A position the
// sender read from its peer entry under this node's current table epoch
// is right as it stands: no peer has left since, and positions only move
// when one does. Under an older epoch the entry at pos still naming from
// is proof enough — the same check Node.live makes on a slot — and
// otherwise (the message was addressed by ID, or the edge was torn down
// mid-flight and the position freed or recycled) it falls back to the
// scan.
func (nd *Node) senderPos(d *delivery) int32 {
	pos := int32(d.srcPos)
	if pos >= 0 && d.dstEpoch == nd.tabEpoch {
		return pos
	}
	if uint(pos) < uint(len(nd.peerTab)) && nd.peerTab[pos].node == d.src {
		return pos
	}
	return nd.peerPos(d.src)
}

// hashIdx returns the dense hash index of the object a relay record names:
// the one it carries, unless a ResetInventory overtook the message, in
// which case the object's hash is registered afresh, as a message that
// spelled the hash out would have it.
func (nd *Node) hashIdx(d *delivery) int32 {
	if d.gen == nd.net.invGen {
		return d.hi
	}
	return nd.net.hashSlot(d.hash())
}

// handleMessage hands a delivered wire.Message — what Send carries — to
// Network.OnMessage; the base node consumes none. Everything the relay and
// the probes exchange arrives as record fields and is dispatched by
// Network.arrive.
func (nd *Node) handleMessage(from NodeID, msg wire.Message) {
	if f := nd.net.OnMessage; f != nil {
		f(nd, from, msg)
	}
}

// handleInv requests the announced transaction or block if we have neither
// seen it nor asked for it. The sender's position is resolved once here,
// so the holder fact is one bit and the reply goes through the peer entry.
func (nd *Node) handleInv(d *delivery) {
	fromPos := nd.senderPos(d)
	hi := nd.hashIdx(d)
	nd.markPeerHas(d.src, fromPos, hi)
	e := nd.invEnsure(hi)
	gen := nd.net.invGen
	if e.seenGen == gen || e.reqGen == gen {
		return
	}
	e.reqGen = gen
	want := nd.sendTo(fromPos, d.src, wire.CmdGetData, invSize)
	want.tx, want.block, want.hi, want.gen = d.tx, d.block, hi, gen
}

// handleGetData serves the full transaction or block if we hold it.
func (nd *Node) handleGetData(d *delivery) {
	hi := d.hi
	if d.gen != nd.net.invGen {
		var ok bool
		if hi, ok = nd.net.findHash(d.hash()); !ok {
			return
		}
	}
	if d.tx != nil {
		if tx, ok := nd.txFor(hi); ok {
			fromPos := nd.senderPos(d)
			nd.markPeerHas(d.src, fromPos, hi)
			nd.sendTx(fromPos, d.src, tx, hi)
		}
		return
	}
	if b, ok := nd.blockFor(hi); ok {
		fromPos := nd.senderPos(d)
		nd.markPeerHas(d.src, fromPos, hi)
		r := nd.sendTo(fromPos, d.src, wire.CmdBlock, frameLen+b.Size())
		r.block, r.hi, r.gen = b, hi, nd.net.invGen
	}
}

// handleObject takes a full transaction or block: unless already seen, it
// is verified (with modelled delay) and then accepted and relayed. Fig. 1:
// the peer verifies BEFORE announcing onward. The verification delay is
// virtual time, not host CPU; the wait is a record like the message was.
func (nd *Node) handleObject(d *delivery) {
	n := nd.net
	hi := nd.hashIdx(d)
	nd.markPeerHas(d.src, nd.senderPos(d), hi)
	if nd.seenIdx(hi) {
		return
	}
	var cost time.Duration
	if d.tx != nil {
		cost = n.cfg.VerifyCost.TxCost(d.tx)
	} else {
		cost = n.cfg.VerifyCost.BlockCost(d.block)
	}
	idx := n.dc.newFlight()
	n.dc.flight[idx] = delivery{src: d.src, dst: nd, tx: d.tx, block: d.block}
	n.sched.AfterIndexed(cost, n.verifyTag, idx)
}

// --- ping measurement ---

// ping sends dst a ping over a link of the given baseline, stamped with the
// time it leaves. A ping that cannot leave — dst is nil, the target having
// named nobody when ProbeN ran, or dst has left — counts as Dropped. Either
// way the node itself keeps nothing.
func (nd *Node) ping(dst *Node, base time.Duration) {
	n := nd.net
	if dst == nil || !dst.live() {
		n.dc.stats.Dropped++
		return
	}
	n.deliver(nd, dst, -1, base, wire.CmdPing, n.pingSize, nil, -1).word = uint64(nd.now())
}

// pong answers a ping from what its record carried: the pinger and the
// baseline of the link the ping came over, so the reply looks up neither
// the node nor the link, and the ping's send time, which goes back as it
// came. A pinger that left with its ping in flight — its slot empty, or
// recycled by a later joiner — gets none.
//
// A pong only reports a round trip to the pinger, and with no tracer
// attached it travels as a ticket (pongTicket) instead of a record and an
// event: it is counted, loss-tested, queued on the uplink and delayed like
// any send, takes the place in the event order its landing would have, and
// reaches Network.OnRTT once that place has passed and the pinger is folded
// (FoldPongs).
func (nd *Node) pong(ping *delivery) {
	n := nd.net
	if !ping.src.live() {
		n.dc.stats.Dropped++
		return
	}
	if n.dc.trace == nil {
		if delay, _, _, ok := n.launch(nd, ping.src, -1, ping.base, wire.CmdPong, pongSize); ok {
			t := n.sched.Reserve(delay)
			n.pongs.add(ping.src.slot, pongTicket{Ticket: t, from: nd, rtt: time.Duration(t.At() - sim.Time(ping.word))})
		}
		return
	}
	n.deliver(nd, ping.src, -1, ping.base, wire.CmdPong, pongSize, nil, -1).word = ping.word
}

// ProbeN measures the round trip to each of targets n times: n rounds spaced
// by gap, the first now, each one event (Network.probeRound) that sends every
// target a ping, in list order. Each target and its pair's link are resolved
// here, once, and ride in the call's probeSet: a target that names nobody
// now is a ping dropped every round, like one that has left by then. What
// the pongs report reaches Network.OnRTT, every pong whose landing has
// passed by the time the prober is folded (FoldPongs). A ping or pong lost
// on the way, or to churn, never arrives.
func (nd *Node) ProbeN(targets []NodeID, n int, gap time.Duration) {
	if n <= 0 || len(targets) == 0 {
		return
	}
	net := nd.net
	idx := net.newProbeSet()
	ps := &net.probes[idx]
	ps.src, ps.left = nd, n
	for _, id := range targets {
		var t probeTarget
		if dst, ok := net.nodes[id]; ok {
			t.dst, t.base = dst, net.link(nd, dst).Base()
		}
		ps.targets = append(ps.targets, t)
	}
	for i := 0; i < n; i++ {
		net.sched.AfterIndexed(time.Duration(i)*gap, net.probeTag, idx)
	}
}

// handlePong reports the round trip the pong's record spans, after the
// pongs that travelled as tickets and landed before it.
func (nd *Node) handlePong(pong *delivery) {
	nd.FoldPongs()
	rtt := time.Duration(nd.now() - sim.Time(pong.word))
	nd.observe(pong.src.id, rtt)
	if tr := nd.net.dc.trace; tr != nil {
		tr.Record(obs.Event{At: nd.now(), Kind: obs.KindRTT, P1: uint64(nd.id), P2: uint64(pong.src.id), P3: uint64(rtt)})
	}
}

// observe hands one round trip to target to Network.OnRTT: what a pong does
// on landing, as an event (handlePong) or a ticket folded in (FoldPongs).
// The node keeps nothing of it.
func (nd *Node) observe(target NodeID, rtt time.Duration) {
	if f := nd.net.OnRTT; f != nil {
		f(nd, target, rtt)
	}
}

// FoldPongs hands Network.OnRTT the pongs that reached the node as tickets
// and whose landing has passed, in landing order: what handlePong did with
// each when it landed, had it been an event. A reader of the node's round
// trips calls it before reading, so that what it read reflects every pong
// whose landing has passed and none still on its way. A node that has left
// has none (settlePongs).
func (nd *Node) FoldPongs() {
	n := nd.net
	if !nd.live() {
		return
	}
	list := n.pongs.of(nd.slot)
	k := 0
	for ; k < len(list) && n.sched.Passed(list[k].Ticket); k++ {
		nd.observe(list[k].from.id, list[k].rtt)
	}
	if k > 0 {
		n.pongs.drop(nd.slot, k)
	}
}

// settlePongs ends the node's pong tickets, before it leaves or a tracer is
// attached: the ones that have passed are folded in, and the rest become
// the pong records they stand for, in their own places (sim.Scheduler.Redeem)
// — to land at a node that has gone and count as Dropped, or to land under
// the tracer — as pongs that were events all along would.
func (nd *Node) settlePongs() {
	nd.FoldPongs()
	n := nd.net
	list := n.pongs.of(nd.slot)
	for _, t := range list {
		idx := n.dc.newFlight()
		n.dc.flight[idx] = delivery{src: t.from, dst: nd, word: uint64(t.At() - sim.Time(t.rtt)), srcPos: -1, cmd: wire.CmdPong}
		n.sched.Redeem(t.Ticket, n.arriveTag, idx)
	}
	if len(list) > 0 {
		n.pongs.drop(nd.slot, len(list))
	}
}
