package p2p

import (
	"encoding/binary"
	"errors"
	"slices"
	"sort"
	"time"

	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/latency"
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
// record it puts in flight tells the receiver where its sender sits. The
// zero value is a free position; removePeer restores it, so nothing about
// a connection outlives the connection.
type peerEntry struct {
	id   NodeID
	node *Node
	// base is the edge's congestion-free RTT (latency.Link.Base), zero
	// until first use: Network.edgeLink resolves it once per edge and
	// fills both sides. A duration rather than a latency.Link keeps the
	// entry at 32 bytes.
	base     time.Duration
	rpos     int32
	outbound bool
}

// estEntry is one per-target RTT estimator, kept sorted by target in a
// contiguous per-node slice.
type estEntry struct {
	target NodeID
	est    *latency.Estimator
}

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
	txGen     uint32 // inv.tx[hi] holds the transaction
	blockGen  uint32 // inv.block[hi] holds the block
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
// by the network's dense hash index. entries/tx/block grow to the
// number of distinct hashes seen this generation (one or two in a
// measurement run); holderBits holds peerWords() words per hash — one
// bit per adjacency position.
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
	tx         []*chain.Tx
	block      []*chain.Block
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
// adjacency in stable peerTab positions, inventory in generation-stamped
// arrays keyed by dense hash index — so a node costs a few hundred bytes
// instead of four maps, and a 100k-node network floods without touching
// the allocator.
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
	// peerTab is the stable-position adjacency table (id == 0 marks a
	// free position, recycled through peerFree LIFO), walked in position
	// order by every loop over the peers; only Peers sorts what it collects.
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
	peerFree     []int32
	nPeers       int
	nOut         int

	// extraHandler receives messages the base node does not consume
	// (JOIN/CLUSTER); the topology layer installs it.
	extraHandler func(from NodeID, msg wire.Message)

	// ests holds per-target RTT estimators fed by Probe, sorted by target.
	ests []estEntry

	loc geo.Location
}

// now returns the current virtual time.
func (nd *Node) now() sim.Time { return nd.net.sched.Now() }

// SetExtraHandler installs a handler for protocol-extension messages
// (JOIN/CLUSTER). Passing nil removes it.
func (nd *Node) SetExtraHandler(h func(from NodeID, msg wire.Message)) {
	nd.extraHandler = h
}

// Send transmits an arbitrary wire message to any live node, addressed by
// ID: the overlay's "any host can dial any other". Topology protocols use
// it for their extension messages, and address discovery for GETADDR and
// ADDR; the message is silently dropped if either end is gone (matching a
// TCP RST on a dead host). Relay traffic between peers does not come this
// way — it has no wire.Message to send (sendTo) — nor do pings and pongs
// (ping, pong).
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
// to, a sender that is no longer a peer: the link comes from the network's
// memo of by-ID pairs, and the message is dropped if either end is gone (a
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

// Location returns the node's (self-reported) geographic placement.
func (nd *Node) Location() geo.Location { return nd.loc }

// --- adjacency ---

// addPeer installs peer at a stable position and returns it; connect
// links the two sides' positions through rpos once both exist. Recycled
// positions may carry holder bits or spill facts from an earlier peer,
// so both are reconciled here: stale bits for the position are cleared,
// and spill facts about this peer migrate into the bitset.
func (nd *Node) addPeer(peer *Node, outbound bool) int32 {
	var pos int32
	if last := len(nd.peerFree) - 1; last >= 0 {
		pos = nd.peerFree[last]
		nd.peerFree = nd.peerFree[:last]
	} else {
		pos = int32(len(nd.peerTab))
		nd.peerTab = append(nd.peerTab, peerEntry{})
	}
	nd.peerTab[pos] = peerEntry{id: peer.id, node: peer, outbound: outbound}
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

// removePeer tears down the adjacency entry for id, preserving holder
// facts about the departing peer in the spill set — the reference
// semantics remember that a disconnected peer holds a hash, and so a
// reconnect within the same generation must too. A fact is kept only
// while both ends are live: addPeer, the one reader of the spill set,
// asks about the peer being added, and a removed node is never added
// again (its ID is never reused), so when RemoveNode — which clears the
// departing node's slot first — tears an edge down, neither end's facts
// about the other could ever be read.
func (nd *Node) removePeer(id NodeID) {
	pos := nd.peerPos(id)
	if pos < 0 {
		return
	}
	nd.settleLazy(pos)
	keep := nd.live() && nd.peerTab[pos].node.live()
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
				nd.spillAdd(int32(hi), id)
			}
		}
	}
	if nd.peerTab[pos].outbound {
		nd.nOut--
	}
	nd.peerTab[pos] = peerEntry{}
	nd.tabEpoch++
	nd.peerFree = append(nd.peerFree, pos)
	nd.nPeers--
}

// peerPos returns id's adjacency position, or -1 if not a peer: a linear
// scan of a table that is at most MaxPeers entries and usually ~16. The
// relay path does not call it — sends go through positions and records in
// flight carry the sender's — so it serves connect/disconnect and the last
// step of senderPos, for a message that a removePeer at the receiver
// overtook and whose position no longer names its sender.
func (nd *Node) peerPos(id NodeID) int32 {
	for i := range nd.peerTab {
		if nd.peerTab[i].id == id {
			return int32(i)
		}
	}
	return -1
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
		if id := nd.peerTab[i].id; id != 0 && !f(id) {
			return
		}
	}
}

// NumPeers returns the number of connections.
func (nd *Node) NumPeers() int { return nd.nPeers }

// Outbound returns the number of connections this node initiated.
func (nd *Node) Outbound() int { return nd.nOut }

// IsPeer reports whether id is a connected peer.
func (nd *Node) IsPeer(id NodeID) bool { return nd.peerPos(id) >= 0 }

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

// txFor returns the stored transaction for hi, if present this generation.
func (nd *Node) txFor(hi int32) (*chain.Tx, bool) {
	if int(hi) < len(nd.inv.entries) && nd.inv.entries[hi].txGen == nd.net.invGen {
		return nd.inv.tx[hi], true
	}
	return nil, false
}

// storeTx records the full transaction for hi.
func (nd *Node) storeTx(hi int32, tx *chain.Tx) {
	e := nd.invEnsure(hi)
	for int(hi) >= len(nd.inv.tx) {
		nd.inv.tx = append(nd.inv.tx, nil)
	}
	nd.inv.tx[hi] = tx
	e.txGen = nd.net.invGen
}

// blockFor returns the stored block for hi, if present this generation.
func (nd *Node) blockFor(hi int32) (*chain.Block, bool) {
	if int(hi) < len(nd.inv.entries) && nd.inv.entries[hi].blockGen == nd.net.invGen {
		return nd.inv.block[hi], true
	}
	return nil, false
}

// storeBlock records the full block for hi.
func (nd *Node) storeBlock(hi int32, b *chain.Block) {
	e := nd.invEnsure(hi)
	for int(hi) >= len(nd.inv.block) {
		nd.inv.block = append(nd.inv.block, nil)
	}
	nd.inv.block[hi] = b
	e.blockGen = nd.net.invGen
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

// Estimator returns the RTT estimator for a probed target, if any.
func (nd *Node) Estimator(target NodeID) (*latency.Estimator, bool) {
	i := sort.Search(len(nd.ests), func(i int) bool { return nd.ests[i].target >= target })
	if i < len(nd.ests) && nd.ests[i].target == target {
		return nd.ests[i].est, true
	}
	return nil, false
}

// estFor returns (creating if needed) the estimator for target, keeping
// the slice sorted by target.
func (nd *Node) estFor(target NodeID) *latency.Estimator {
	i := sort.Search(len(nd.ests), func(i int) bool { return nd.ests[i].target >= target })
	if i < len(nd.ests) && nd.ests[i].target == target {
		return nd.ests[i].est
	}
	est := &latency.Estimator{}
	nd.ests = append(nd.ests, estEntry{})
	copy(nd.ests[i+1:], nd.ests[i:])
	nd.ests[i] = estEntry{target: target, est: est}
	return est
}

// --- transaction origination and relay (Fig. 1) ---

// SubmitTx injects a locally created transaction: the node validates it
// and announces it to all peers, exactly as if a wallet had handed it in.
func (nd *Node) SubmitTx(tx *chain.Tx) error {
	if err := nd.acceptTx(tx, 0); err != nil {
		return err
	}
	return nil
}

// errConflict rejects a transaction that spends an output which a
// transaction the node already holds spends.
var errConflict = errors.New("p2p: transaction conflicts with one the node holds")

// acceptTx validates and records a transaction, then announces it.
// from == 0 means locally submitted.
//
// Of two transactions spending the same output, a node keeps the one it
// accepted first and rejects the other, as a Bitcoin node's mempool does:
// the double-spend race is decided node by node in arrival order. A node
// holds a transaction iff it has seen its hash this generation, so the rule
// needs no per-node state, only the network's list of the spenders of each
// output. A coinbase spends nothing: the flood path pays an empty loop.
func (nd *Node) acceptTx(tx *chain.Tx, from NodeID) error {
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
// nil — to every peer not already known to have it, as an INV (Fig. 1).
// Peers are offered in peerTab position order: each send advances the
// sender's keyed delivery sequence, so the order must be reproducible, and a
// position is — it is held for the life of a connection, and which one a
// connection takes (the most recently freed, else a new one at the end) is
// fixed by the connect/disconnect sequence.
func (nd *Node) announce(hi int32, tx *chain.Tx, block *chain.Block, except NodeID) {
	gen := nd.net.invGen
	for i := range nd.peerTab {
		e, pos := &nd.peerTab[i], int32(i)
		if e.id == 0 || e.id == except || nd.holderHas(hi, pos) {
			continue
		}
		d := nd.net.deliver(nd, e.node, pos, 0, wire.CmdInv, invSize, nil, hi)
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
	return nd.peerPos(d.src.id)
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

// handleMessage dispatches a delivered wire.Message: what Send carries.
// Address requests are answered by ID, the way they came; everything the
// relay and the probes exchange arrives as record fields and is dispatched
// by Network.arrive.
func (nd *Node) handleMessage(from NodeID, msg wire.Message) {
	switch msg.(type) {
	case *wire.MsgGetAddr:
		nd.handleGetAddr(from)
	case *wire.MsgAddr:
		// Address gossip terminates here; topology managers pull
		// addresses via the discovery API rather than per-node state.
	default:
		// JOIN/CLUSTER and handshake messages are consumed by the
		// topology layer, which installs its own handler.
		if nd.extraHandler != nil {
			nd.extraHandler(from, msg)
		}
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

// Probe sends a single measurement ping to target (connected or not) and
// feeds the resulting RTT into this node's estimator for the target.
// done, if non-nil, fires with the measured RTT.
func (nd *Node) Probe(target NodeID, done func(rtt time.Duration)) {
	nd.probe(target, nd.net.dc.holdDone(done))
}

// probe is Probe for a callback already in the table under handle h.
func (nd *Node) probe(target NodeID, h int32) {
	dst := nd.net.nodes[target]
	var base time.Duration
	if dst != nil {
		base = nd.net.link(nd, dst).Base()
	}
	nd.ping(dst, base, h)
}

// ping sends dst a ping over a link of the given baseline, stamped with the
// time it leaves and carrying callback handle h. A ping that cannot leave —
// dst is nil, the target being gone, or this node has left the network
// itself — counts as Dropped; that one and a ping lost on the way release
// the handle. Either way the node itself keeps nothing.
func (nd *Node) ping(dst *Node, base time.Duration, h int32) {
	n := nd.net
	if dst == nil || !nd.live() {
		n.dc.stats.Dropped++
		n.dc.takeDone(h)
		return
	}
	if d := n.deliver(nd, dst, -1, base, wire.CmdPing, n.pingSize, nil, -1); d != &n.dc.lost {
		d.word, d.hi = uint64(nd.now()), h
	} else {
		n.dc.takeDone(h)
	}
}

// pong answers a ping from what its record carried: the pinger and the
// baseline of the link the ping came over, so the reply looks up neither
// the node nor the link, and the ping's send time and callback handle, which
// go back as they came. A pinger that left with its ping in flight — its
// slot empty, or recycled by a later joiner — gets none.
func (nd *Node) pong(ping *delivery) {
	n := nd.net
	if !ping.src.live() {
		n.dc.stats.Dropped++
		n.dc.takeDone(ping.hi)
		return
	}
	if d := n.deliver(nd, ping.src, -1, ping.base, wire.CmdPong, pongSize, nil, -1); d != &n.dc.lost {
		d.word, d.hi = ping.word, ping.hi
	} else {
		n.dc.takeDone(ping.hi)
	}
}

// ProbeN sends n pings spaced by gap and calls done once all have
// completed (or been lost to churn — lost probes simply never arrive, so
// done fires only when all n pongs return; callers combine this with the
// estimator's Ready check). The target and the pair's link are resolved
// here, once, and ride in each due probe's record: the link is a pure
// function of the seed and the pair, so it is drawn and not stored.
func (nd *Node) ProbeN(target NodeID, n int, gap time.Duration, done func(est *latency.Estimator)) {
	if n <= 0 {
		return
	}
	net := nd.net
	// One completion callback shared by all n pings — the single
	// allocation a ProbeN with a done costs — under a handle each.
	var onPong func(time.Duration)
	if done != nil {
		remaining := n
		onPong = func(time.Duration) {
			remaining--
			if remaining == 0 {
				if est, ok := nd.Estimator(target); ok {
					done(est)
				}
			}
		}
	}
	due := delivery{src: nd, word: uint64(target)}
	if dst, ok := net.nodes[target]; ok {
		due.dst, due.base = dst, net.makeLink(mkLinkKey(nd.id, target), nd, dst).Base()
	}
	for i := 0; i < n; i++ {
		due.hi = net.dc.holdDone(onPong)
		idx := net.dc.newFlight()
		net.dc.flight[idx] = due
		net.sched.AfterIndexed(time.Duration(i)*gap, net.probeTag, idx)
	}
}

// handlePong feeds the estimator for the pong's sender the round trip its
// record spans, and hands the same to the callback the probe came with.
func (nd *Node) handlePong(pong *delivery) {
	rtt := time.Duration(nd.now() - sim.Time(pong.word))
	nd.estFor(pong.src.id).Observe(rtt)
	if done := nd.net.dc.takeDone(pong.hi); done != nil {
		done(rtt)
	}
}

// handleGetAddr replies with a sample of this node's peer addresses —
// "the normal Bitcoin network nodes discovery mechanism" (§IV.B).
func (nd *Node) handleGetAddr(from NodeID) {
	addrs := make([]wire.NetAddr, 0, nd.nPeers)
	nd.EachPeer(func(id NodeID) bool {
		if id != from {
			addrs = append(addrs, wire.NetAddr{NodeID: uint64(id)})
		}
		return true
	})
	nd.Send(from, &wire.MsgAddr{Addrs: addrs})
}
