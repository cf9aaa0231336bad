package p2p

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/latency"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ReferenceNetwork and ReferenceNode preserve the retired map-based node
// layout — per-node known/peerInv/requested/txData maps, a wire.Message
// built per send, every end found by ID — as an executable oracle, the
// same pattern as sim's ReferenceScheduler. The protocol logic, random
// stream consumption and event scheduling are kept equivalent to the
// flat implementation's, so TestFlatNodeMatchesReference and
// FuzzFlatNodeMatchesReference can pin delivery order, first-seen times
// and traffic counters bit-identical between the two. It is test code:
// nothing outside a differential harness can construct one.

// refPeerState is per-connection bookkeeping on one side of an edge.
type refPeerState struct {
	outbound bool
}

// refPendingPing tracks an in-flight ping probe.
type refPendingPing struct {
	sentAt sim.Time
	target NodeID
	done   func(rtt time.Duration)
}

// ReferenceNode is the map-based oracle node.
type ReferenceNode struct {
	id  NodeID
	loc geo.Location
	net *ReferenceNetwork

	peers map[NodeID]*refPeerState
	// slots is the order the node walks its peers in: each holds the
	// position it took on connecting for the life of the connection (0
	// marks a free one), and a new connection takes the most recently
	// freed position, else a new one at the end.
	slots []NodeID
	free  []int

	// known maps every accepted inventory hash to its first-seen time.
	known map[chain.Hash]sim.Time
	// txData holds full transactions available for serving GETDATA.
	txData map[chain.Hash]*chain.Tx
	// blockData holds full blocks available for serving GETDATA.
	blockData map[chain.Hash]*chain.Block
	// peerInv records, per hash, which peers are already known to have it.
	peerInv map[chain.Hash]map[NodeID]struct{}
	// requested marks hashes with a GETDATA in flight.
	requested map[chain.Hash]struct{}

	// spent maps every output an accepted transaction spends to that
	// transaction: the node's own record of the first-spend rule, where the
	// flat layout reads the network's spenders list against its seen marks.
	spent map[chain.Outpoint]chain.Hash

	uplinkFreeAt sim.Time

	// sendSeq counts sends by this node; it keys the per-send delivery
	// RNG, mirroring the flat Node exactly.
	sendSeq uint64

	pending   map[uint64]refPendingPing
	nextNonce uint64
}

// ID returns the node's identifier.
func (nd *ReferenceNode) ID() NodeID { return nd.id }

// Location returns the node's geographic placement.
func (nd *ReferenceNode) Location() geo.Location { return nd.loc }

// addPeer records a connection to id and gives it a slot.
func (nd *ReferenceNode) addPeer(id NodeID, outbound bool) {
	nd.peers[id] = &refPeerState{outbound: outbound}
	if last := len(nd.free) - 1; last >= 0 {
		nd.slots[nd.free[last]] = id
		nd.free = nd.free[:last]
		return
	}
	nd.slots = append(nd.slots, id)
}

// dropPeer forgets the connection to id and frees its slot.
func (nd *ReferenceNode) dropPeer(id NodeID) {
	delete(nd.peers, id)
	i := slices.Index(nd.slots, id)
	nd.slots[i] = 0
	nd.free = append(nd.free, i)
}

// Peers returns the connected peer IDs in ascending order.
func (nd *ReferenceNode) Peers() []NodeID {
	out := make([]NodeID, 0, len(nd.peers))
	for id := range nd.peers {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// NumPeers returns the number of connections.
func (nd *ReferenceNode) NumPeers() int { return len(nd.peers) }

// Outbound returns the number of connections this node initiated.
func (nd *ReferenceNode) Outbound() int {
	c := 0
	for _, p := range nd.peers {
		if p.outbound {
			c++
		}
	}
	return c
}

// IsPeer reports whether id is a connected peer.
func (nd *ReferenceNode) IsPeer(id NodeID) bool {
	_, ok := nd.peers[id]
	return ok
}

// FirstSeen returns when the node first accepted the hash, if ever.
func (nd *ReferenceNode) FirstSeen(h chain.Hash) (sim.Time, bool) {
	t, ok := nd.known[h]
	return t, ok
}

// SubmitTx injects a locally created transaction.
func (nd *ReferenceNode) SubmitTx(tx *chain.Tx) error {
	return nd.acceptTx(tx, 0)
}

func (nd *ReferenceNode) acceptTx(tx *chain.Tx, from NodeID) error {
	id := tx.ID()
	if _, seen := nd.known[id]; seen {
		return nil
	}
	if err := tx.CheckWellFormed(); err != nil {
		return err
	}
	for i := range tx.Inputs {
		if _, taken := nd.spent[tx.Inputs[i].PrevOut]; taken {
			return errConflict
		}
	}
	for i := range tx.Inputs {
		nd.spent[tx.Inputs[i].PrevOut] = id
	}
	nd.known[id] = nd.net.Now()
	if nd.txData == nil {
		nd.txData = make(map[chain.Hash]*chain.Tx)
	}
	nd.txData[id] = tx
	delete(nd.requested, id)
	if nd.net.OnTxFirstSeen != nil {
		nd.net.OnTxFirstSeen(nd.id, id, nd.net.Now())
	}
	nd.announce(id, from)
	return nil
}

func (nd *ReferenceNode) announce(h chain.Hash, except NodeID) {
	holders := nd.peerInv[h]
	var inv *wire.MsgInv
	for _, peerID := range nd.slots {
		if peerID == 0 || peerID == except {
			continue
		}
		if _, knows := holders[peerID]; knows {
			continue
		}
		if inv == nil {
			inv = &wire.MsgInv{Items: []wire.InvVect{{Type: wire.InvTx, Hash: h}}}
		}
		nd.net.send(nd.id, peerID, inv)
	}
}

func (nd *ReferenceNode) markPeerHas(peer NodeID, h chain.Hash) {
	set, ok := nd.peerInv[h]
	if !ok {
		set = make(map[NodeID]struct{}, 8)
		nd.peerInv[h] = set
	}
	set[peer] = struct{}{}
}

func (nd *ReferenceNode) handleMessage(from NodeID, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.MsgInv:
		nd.handleInv(from, m)
	case *wire.MsgGetData:
		nd.handleGetData(from, m)
	case *wire.MsgTx:
		nd.handleTx(from, m)
	case *wire.MsgBlock:
		nd.handleBlock(from, m)
	case *wire.MsgPing:
		nd.net.send(nd.id, from, &wire.MsgPong{Nonce: m.Nonce})
	case *wire.MsgPong:
		nd.handlePong(from, m)
	}
}

func (nd *ReferenceNode) handleInv(from NodeID, m *wire.MsgInv) {
	var blocks []wire.InvVect
	want := &wire.MsgGetData{}
	for _, item := range m.Items {
		if item.Type == wire.InvBlock {
			blocks = append(blocks, item)
			continue
		}
		if item.Type != wire.InvTx {
			continue
		}
		nd.markPeerHas(from, item.Hash)
		if _, seen := nd.known[item.Hash]; seen {
			continue
		}
		if nd.requested == nil {
			nd.requested = make(map[chain.Hash]struct{})
		}
		if _, inflight := nd.requested[item.Hash]; inflight {
			continue
		}
		nd.requested[item.Hash] = struct{}{}
		want.Items = append(want.Items, item)
	}
	if len(want.Items) > 0 {
		nd.net.send(nd.id, from, want)
	}
	if len(blocks) > 0 {
		nd.handleBlockInv(from, blocks)
	}
}

func (nd *ReferenceNode) handleGetData(from NodeID, m *wire.MsgGetData) {
	for _, item := range m.Items {
		switch item.Type {
		case wire.InvTx:
			if tx, ok := nd.txData[item.Hash]; ok {
				nd.markPeerHas(from, item.Hash)
				nd.net.send(nd.id, from, &wire.MsgTx{Tx: tx})
			}
		case wire.InvBlock:
			if b, ok := nd.blockData[item.Hash]; ok {
				nd.markPeerHas(from, item.Hash)
				nd.net.send(nd.id, from, &wire.MsgBlock{Block: b})
			}
		}
	}
}

func (nd *ReferenceNode) handleTx(from NodeID, m *wire.MsgTx) {
	tx := m.Tx
	id := tx.ID()
	nd.markPeerHas(from, id)
	if _, seen := nd.known[id]; seen {
		return
	}
	cost := nd.net.cfg.VerifyCost.TxCost(tx)
	nd.net.verifyLater(cost, nd.id, from, tx, nil)
}

// Probe sends a single measurement ping to target.
func (nd *ReferenceNode) Probe(target NodeID, done func(rtt time.Duration)) {
	nd.nextNonce++
	nonce := nd.nextNonce
	nd.pending[nonce] = refPendingPing{sentAt: nd.net.Now(), target: target, done: done}
	pad := nd.net.cfg.Latency.PingBytes - 12 // nonce + length prefix
	if pad < 0 {
		pad = 0
	}
	nd.net.send(nd.id, target, &wire.MsgPing{Nonce: nonce, Pad: nd.net.sharedPad(pad)})
}

// ProbeN stands for the flat ProbeN with rounds of Probes: rounds spaced by
// gap, the first now, each an event of its own that finds the prober by ID
// and probes every target in list order, done hearing each round trip. A
// target is resolved once, here, as the flat side resolves it: one that
// names nobody now is a ping dropped every round, whoever takes its ID
// later.
func (nd *ReferenceNode) ProbeN(targets []NodeID, rounds int, gap time.Duration, done func(target NodeID, rtt time.Duration)) {
	n, a := nd.net, nd.id
	named := make([]bool, len(targets))
	for k, b := range targets {
		_, named[k] = n.nodes[b]
	}
	for i := 0; i < rounds; i++ {
		n.sched.After(time.Duration(i)*gap, func() {
			rn, ok := n.nodes[a]
			if !ok {
				return
			}
			for k, b := range targets {
				if !named[k] {
					n.stats.Dropped++
					continue
				}
				rn.Probe(b, func(rtt time.Duration) { done(b, rtt) })
			}
		})
	}
}

func (nd *ReferenceNode) handlePong(from NodeID, m *wire.MsgPong) {
	p, ok := nd.pending[m.Nonce]
	if !ok || p.target != from {
		return
	}
	delete(nd.pending, m.Nonce)
	if p.done != nil {
		p.done(time.Duration(nd.net.Now() - p.sentAt))
	}
}

// SubmitBlock injects a locally mined block.
func (nd *ReferenceNode) SubmitBlock(b *chain.Block) error {
	return nd.acceptBlock(b, 0)
}

func (nd *ReferenceNode) acceptBlock(b *chain.Block, from NodeID) error {
	h := b.Header.Hash()
	if _, seen := nd.known[h]; seen {
		return nil
	}
	if !b.Header.CheckPoW() || b.Header.MerkleRoot != chain.MerkleRoot(b.Txs) {
		return errBadBlock
	}
	nd.known[h] = nd.net.Now()
	if nd.blockData == nil {
		nd.blockData = make(map[chain.Hash]*chain.Block)
	}
	nd.blockData[h] = b
	delete(nd.requested, h)
	if nd.net.OnBlockFirstSeen != nil {
		nd.net.OnBlockFirstSeen(nd.id, h, nd.net.Now())
	}
	nd.announceBlock(h, from)
	return nil
}

func (nd *ReferenceNode) announceBlock(h chain.Hash, except NodeID) {
	holders := nd.peerInv[h]
	var inv *wire.MsgInv
	for _, peerID := range nd.slots {
		if peerID == 0 || peerID == except {
			continue
		}
		if _, knows := holders[peerID]; knows {
			continue
		}
		if inv == nil {
			inv = &wire.MsgInv{Items: []wire.InvVect{{Type: wire.InvBlock, Hash: h}}}
		}
		nd.net.send(nd.id, peerID, inv)
	}
}

func (nd *ReferenceNode) handleBlockInv(from NodeID, items []wire.InvVect) {
	want := &wire.MsgGetData{}
	for _, item := range items {
		nd.markPeerHas(from, item.Hash)
		if _, seen := nd.known[item.Hash]; seen {
			continue
		}
		if nd.requested == nil {
			nd.requested = make(map[chain.Hash]struct{})
		}
		if _, inflight := nd.requested[item.Hash]; inflight {
			continue
		}
		nd.requested[item.Hash] = struct{}{}
		want.Items = append(want.Items, item)
	}
	if len(want.Items) > 0 {
		nd.net.send(nd.id, from, want)
	}
}

func (nd *ReferenceNode) handleBlock(from NodeID, m *wire.MsgBlock) {
	b := m.Block
	h := b.Header.Hash()
	nd.markPeerHas(from, h)
	if _, seen := nd.known[h]; seen {
		return
	}
	cost := nd.net.cfg.VerifyCost.BlockCost(b)
	nd.net.verifyLater(cost, nd.id, from, nil, b)
}

// HasBlock reports whether the node holds the block.
func (nd *ReferenceNode) HasBlock(h chain.Hash) bool {
	_, ok := nd.blockData[h]
	return ok
}

// ReferenceNetwork is the map-based oracle network.
type ReferenceNetwork struct {
	cfg     Config
	sched   *sim.Scheduler
	streams *sim.Streams
	model   *latency.Model

	nodes  map[NodeID]*ReferenceNode
	nextID NodeID

	// Keyed delivery RNG — the exact mirror of the flat network's
	// per-send keying (see Network.deliver), so the two stay comparable
	// draw for draw.
	ksrc  sim.KeyedSource
	krand *rand.Rand

	pingPad []byte

	stats Stats

	// OnTxFirstSeen fires when a node accepts a transaction it had not
	// seen before.
	OnTxFirstSeen func(node NodeID, tx chain.Hash, at sim.Time)
	// OnBlockFirstSeen fires when a node accepts a block it had not seen
	// before.
	OnBlockFirstSeen func(node NodeID, block chain.Hash, at sim.Time)
	// OnDisconnect fires after a connection is torn down.
	OnDisconnect func(a, b NodeID)
}

// NewReferenceNetwork creates an empty oracle network. It draws from the
// same named random streams as NewNetwork with the same seed, which is
// what makes the two comparable event for event.
func NewReferenceNetwork(cfg Config) (*ReferenceNetwork, error) {
	if cfg.MaxOutbound <= 0 || cfg.MaxPeers <= 0 {
		return nil, errors.New("p2p: MaxOutbound and MaxPeers must be positive")
	}
	if cfg.MaxOutbound > cfg.MaxPeers {
		return nil, fmt.Errorf("p2p: MaxOutbound %d > MaxPeers %d", cfg.MaxOutbound, cfg.MaxPeers)
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return nil, fmt.Errorf("p2p: LossProb %g outside [0,1)", cfg.LossProb)
	}
	model, err := latency.NewModel(cfg.Latency)
	if err != nil {
		return nil, err
	}
	streams := sim.NewStreams(cfg.Seed)
	n := &ReferenceNetwork{
		cfg:     cfg,
		sched:   sim.NewScheduler(),
		streams: streams,
		model:   model,
		nodes:   make(map[NodeID]*ReferenceNode),
	}
	n.krand = rand.New(&n.ksrc)
	return n, nil
}

// Scheduler exposes the simulation clock and event queue.
func (n *ReferenceNetwork) Scheduler() *sim.Scheduler { return n.sched }

// Stats returns a snapshot of the message counters.
func (n *ReferenceNetwork) Stats() Stats { return n.stats }

// Now returns the current virtual time.
func (n *ReferenceNetwork) Now() sim.Time { return n.sched.Now() }

// NumNodes returns the number of live nodes.
func (n *ReferenceNetwork) NumNodes() int { return len(n.nodes) }

// AddNode creates a node at the given location and returns it.
func (n *ReferenceNetwork) AddNode(loc geo.Location) *ReferenceNode {
	n.nextID++
	id := n.nextID
	node := &ReferenceNode{
		id:      id,
		loc:     loc,
		net:     n,
		peers:   make(map[NodeID]*refPeerState),
		known:   make(map[chain.Hash]sim.Time, 16),
		peerInv: make(map[chain.Hash]map[NodeID]struct{}, 16),
		pending: make(map[uint64]refPendingPing),
		spent:   make(map[chain.Outpoint]chain.Hash),
	}
	n.nodes[id] = node
	return node
}

// Node returns the node with the given ID, if it exists.
func (n *ReferenceNetwork) Node(id NodeID) (*ReferenceNode, bool) {
	node, ok := n.nodes[id]
	return node, ok
}

// NodeIDs returns all live node IDs in ascending order.
func (n *ReferenceNetwork) NodeIDs() []NodeID {
	ids := make([]NodeID, 0, len(n.nodes))
	for id := NodeID(1); id <= n.nextID; id++ {
		if _, ok := n.nodes[id]; ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// RemoveNode disconnects and deletes a node (a churn "leave" event). The
// node and its peers forget what they knew of each other — the holder
// facts the edges carried, kept by the removed node or about it — since
// IDs are never reused and no node can ask about the removed one again.
// A fact an earlier Disconnect left at a non-peer stays, as the flat
// layout's spill set keeps it, and what a message still in flight from
// the removed node says is recorded when it lands, as from any non-peer.
func (n *ReferenceNetwork) RemoveNode(id NodeID) {
	node, ok := n.nodes[id]
	if !ok {
		return
	}
	delete(n.nodes, id)
	clear(node.peerInv)
	for _, peerID := range node.Peers() {
		node.dropPeer(peerID)
		if nb, ok := n.nodes[peerID]; ok {
			nb.dropPeer(id)
			for _, holders := range nb.peerInv {
				delete(holders, id)
			}
		}
		if n.OnDisconnect != nil {
			n.OnDisconnect(id, peerID)
		}
	}
}

// link draws the pair's link from pair-keyed parameters, mirroring
// Network.link exactly.
func (n *ReferenceNetwork) link(a, b *ReferenceNode) latency.Link {
	lo, hi := min(a.id, b.id), max(a.id, b.id)
	var ks sim.KeyedSource
	ks.SeedKey(sim.MixKey3(uint64(n.cfg.Seed)^linkKeyTag, uint64(lo), uint64(hi)))
	return n.model.NewLink(rand.New(&ks), a.loc.Coord, b.loc.Coord)
}

func (n *ReferenceNetwork) sharedPad(size int) []byte {
	if size > len(n.pingPad) {
		n.pingPad = make([]byte, size)
	}
	return n.pingPad[:size]
}

func (n *ReferenceNetwork) deliver(src, dst *ReferenceNode, msg wire.Message) {
	size := wire.EncodedSize(msg)
	n.stats.count(msg.Command(), size)
	// Per-send keyed draws, mirroring Network.deliver exactly.
	src.sendSeq++
	n.ksrc.SeedKey(sim.MixKey3(uint64(n.cfg.Seed)^sendKeyTag, uint64(src.id), src.sendSeq))
	if n.cfg.LossProb > 0 && n.krand.Float64() < n.cfg.LossProb {
		n.stats.Lost++
		return
	}
	txTime := time.Duration(float64(size) / n.cfg.Latency.RateBytesPerSec * float64(time.Second))
	start := n.sched.Now()
	if src.uplinkFreeAt > start {
		start = src.uplinkFreeAt
	}
	src.uplinkFreeAt = start + txTime
	delay := (start + txTime - n.sched.Now()) + n.link(src, dst).SampleOneWay(n.krand)
	from, to := src.id, dst.id
	n.sched.After(delay, func() {
		if node, ok := n.nodes[to]; ok {
			node.handleMessage(from, msg)
		} else {
			n.stats.Dropped++
		}
	})
}

func (n *ReferenceNetwork) send(from NodeID, to NodeID, msg wire.Message) {
	src, ok := n.nodes[from]
	if !ok {
		n.stats.Dropped++
		return
	}
	dst, ok := n.nodes[to]
	if !ok {
		n.stats.Dropped++
		return
	}
	n.deliver(src, dst, msg)
}

// Connect establishes a connection initiated by a to b.
func (n *ReferenceNetwork) Connect(a, b NodeID) error {
	return n.connect(a, b, true)
}

// ConnectUnbounded is Connect without the initiator's outbound cap.
func (n *ReferenceNetwork) ConnectUnbounded(a, b NodeID) error {
	return n.connect(a, b, false)
}

func (n *ReferenceNetwork) connect(a, b NodeID, enforceOutbound bool) error {
	if a == b {
		return ErrSelfConnect
	}
	na, ok := n.nodes[a]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, a)
	}
	nb, ok := n.nodes[b]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, b)
	}
	if _, dup := na.peers[b]; dup {
		return ErrAlreadyPeers
	}
	if enforceOutbound && na.Outbound() >= n.cfg.MaxOutbound {
		return ErrOutboundLimit
	}
	if len(na.peers) >= n.cfg.MaxPeers {
		return ErrOutboundLimit
	}
	if len(nb.peers) >= n.cfg.MaxPeers {
		return ErrPeerCapacity
	}
	n.stats.count(wire.CmdVersion, versionSize)
	n.stats.count(wire.CmdVerack, verackSize)
	n.stats.count(wire.CmdVersion, versionSize)
	n.stats.count(wire.CmdVerack, verackSize)
	na.addPeer(b, true)
	nb.addPeer(a, false)
	return nil
}

// Disconnect tears down the connection between a and b (no-op if absent).
func (n *ReferenceNetwork) Disconnect(a, b NodeID) {
	na, ok := n.nodes[a]
	if !ok {
		return
	}
	if _, connected := na.peers[b]; !connected {
		return
	}
	na.dropPeer(b)
	if nb, ok := n.nodes[b]; ok {
		nb.dropPeer(na.id)
	}
	if n.OnDisconnect != nil {
		n.OnDisconnect(na.id, b)
	}
}

// verifyLater schedules the end of a modelled verification delay: the node,
// found by ID when it fires, accepts the object it got from from.
func (n *ReferenceNetwork) verifyLater(cost time.Duration, nodeID, from NodeID, tx *chain.Tx, block *chain.Block) {
	n.sched.After(cost, func() {
		node, ok := n.nodes[nodeID]
		if !ok {
			return
		}
		if tx != nil {
			_ = node.acceptTx(tx, from)
			return
		}
		_ = node.acceptBlock(block, from)
	})
}

// ResetInventory clears every node's seen-transaction state in place —
// the map-rebuild behaviour the generation-bump implementation must
// match observably.
func (n *ReferenceNetwork) ResetInventory() {
	for _, node := range n.nodes {
		clear(node.known)
		clear(node.peerInv)
		clear(node.txData)
		clear(node.blockData)
		clear(node.requested)
		clear(node.spent)
	}
}

// Run drains the event queue.
func (n *ReferenceNetwork) Run() error { return n.sched.Run() }

// RunUntil processes events up to the virtual-time limit.
func (n *ReferenceNetwork) RunUntil(ctx context.Context, limit sim.Time) error {
	if err := n.sched.RunUntilCtx(ctx, limit); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("p2p: run interrupted at t=%v: %w", n.sched.Now(), err)
		}
		return err
	}
	return nil
}
