// Package p2p implements the simulated Bitcoin peer-to-peer network: nodes
// with the INV/GETDATA/TX relay protocol of Fig. 1 of the paper, latency-
// weighted message delivery, ping measurement, address gossip, and churn
// hooks. Neighbour selection policy is deliberately NOT here — the
// internal/topology package wires nodes together (randomly, by locality,
// or by ping time) on top of these primitives.
//
// The network is an overlay: any node may message any other (as any host
// can dial any other over IP); the peer graph only determines where
// gossip flows. That distinction is what lets BCBPT ping-probe discovered
// nodes before deciding to peer with them.
//
// Node state is laid out struct-of-arrays style: every node has a dense
// slot index, inventory state lives in generation-stamped flat arrays
// keyed by a network-wide dense hash index, per-hash relay facts are
// bitsets over stable adjacency positions, and what is fixed when two
// nodes connect — peer, link baseline, each side's position at the other
// — sits in the adjacency entry, so a relay send looks nothing up and a
// delivery tells the receiver where its sender sits. ResetInventory is a
// generation bump plus an O(active hashes) registry clear — not a
// per-node map rebuild — which is what lets a 100k+ node network run
// thousand-injection campaigns in bounded memory.
//
// A node's peers are walked in the order of its adjacency table: the INV
// fan-out, address replies, keepalive pings and EachPeer all visit positions
// in ascending order, and no sorted view is kept beside the table. A
// connection holds its position for its life and takes the most recently
// freed one, else a new one at the end, so the order — and with it the
// sender's keyed send sequence — is a fixed function of the connect and
// disconnect sequence. Only Peers sorts: it hands out ascending IDs, in a
// copy, for the callers whose own order must not depend on the table.
//
// A message in flight is a value, not an object: one 64-byte record in the
// network's arena (delivery), scheduled as an indexed event whose index it
// is, so a send allocates nothing and a receive reads the heap entry, the
// record and the receiving node. An INV, GETDATA, TX or BLOCK is the record's
// command byte plus the object it names and that object's dense hash index;
// a ping is the time it left, which its pong brings back, so a probe leaves
// nothing on the node that sent it. Only what Send carries for the topology
// layer — GETADDR, ADDR, JOIN, CLUSTER — is a wire.Message, kept beside the
// record.
//
// An INV that cannot be the first is not even that. Every edge carries one
// INV per object but only one per node makes it ask, and for most of the
// rest it is certain when they leave that landing will only record "the
// sender holds it": the receiver has accepted the object, has a GETDATA out
// for it, or has an earlier-landing INV for it queued. Such an INV takes its
// place in the event order (sim.Scheduler.Reserve) and leaves a ticket at
// its sender's adjacency position in the receiver's inventory state instead
// of a record and a heap entry (Node.lazyInv). What is guaranteed when one is
// taken: every count, loss coin, uplink slot, delay draw and sequence number
// is as if it had been queued, and every reader of the fact it stands for
// sees it exactly when the queue would have produced it — holderHas counts a
// ticket that has passed as its holder bit, the tie at the current instant
// decided by sequence number as the heap decides it. Whatever would make
// landing do more is settled where it happens (Node.settleLazy): removePeer
// folds a passed ticket into the bit before the bits spill and redeems an
// unpassed one as an ordinary INV record addressed by ID (so a receiver that
// left counts it Dropped, and an edge torn down between live nodes ends in
// the spill fact; one torn down by RemoveNode ends in nothing, no node being
// able to ask about the departed ID again), and
// ResetInventory redeems whatever is still on its way before the generation
// turns. A redeemed ticket, a first INV and a traced INV all land in the one
// handleInv. With a tracer attached every INV stays an event — a trace shows
// every message landing — which makes every traced-against-untraced pin
// (TestFigure3CSVGoldenTraced, make trace-smoke, the twin tests here) a
// differential between the two ways an INV can travel.
//
// The retired map-based layout, which builds a wire.Message per send and
// finds everything by ID, lives on in this package's tests as
// ReferenceNetwork (reference_test.go), the oracle that differential and
// fuzz tests pin this one against, bit for bit.
package p2p

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// NodeID identifies a node in the simulated network.
type NodeID uint64

// Config parameterises a Network. Every object travels by the one exchange
// of Fig. 1: INV, then GETDATA, then the TX or BLOCK, and every node
// validates an object the same way before it announces it onward: a
// transaction must be well formed and must not spend an output that a
// transaction the node already holds spends (Node.acceptTx); a block must
// meet its proof of work and commit to its transactions. What that costs in
// time is VerifyCost's virtual delay.
type Config struct {
	// Latency configures the link model (eqs. 2-4).
	Latency latency.Params
	// VerifyCost converts transactions into virtual verification delay.
	VerifyCost chain.VerifyCostModel
	// MaxOutbound caps connections a node initiates (Bitcoin: 8).
	MaxOutbound int
	// MaxPeers caps total connections per node (Bitcoin: 125), at most
	// 32767. It also fixes the width of the per-hash holder bitsets, so it
	// is immutable for the network's lifetime.
	MaxPeers int
	// PingInterval is the keepalive ping period for connected peers.
	// Zero disables keepalive pings.
	PingInterval time.Duration
	// LossProb drops each delivered message independently with this
	// probability (failure injection; "errors such as loss of connection
	// and data corruption are expected", §V.B). 0 disables loss.
	LossProb float64
	// Seed roots all randomness.
	Seed int64
}

// DefaultConfig returns the configuration used by the paper experiments.
func DefaultConfig() Config {
	return Config{
		Latency:      latency.DefaultParams(),
		VerifyCost:   chain.DefaultVerifyCost(),
		MaxOutbound:  8,
		MaxPeers:     125,
		PingInterval: 30 * time.Second,
		Seed:         1,
	}
}

// Network owns the scheduler, all nodes, and the link-latency state.
// It is single-goroutine: every event, and every call on the network or
// its nodes, runs on the goroutine driving the scheduler, so no field
// carries a lock (make race holds the claim). Parallelism lives one level
// up, across independent networks (experiment.Runner).
type Network struct {
	cfg     Config
	sched   *sim.Scheduler
	streams *sim.Streams
	model   *latency.Model

	nodes  map[NodeID]*Node
	nextID NodeID
	// links caches the latency links of pairs that Send or Probe reach by
	// ID — JOIN/CLUSTER, address gossip, keepalive and crawler pings — and
	// of BaseRTT queries. A link is a pure function of the seed and the
	// pair (makeLink), so the table is only a memo, and the two heavy users
	// do without it: relay traffic reads the connection's link from its
	// peer entries (peerEntry.base), and ProbeN draws its pair's link once
	// and carries the baseline through its pings and their pongs.
	links map[linkKey]latency.Link
	// linkDraws counts makeLink calls: one per edge per connection, one
	// per pair in links and one per ProbeN, which the tests pin.
	linkDraws uint64

	// slots is the dense node table: every live node occupies one slot
	// for its lifetime, freed slots recycle LIFO. A node is live while its
	// slot names it (Node.live), which is how an in-flight record tells
	// that an end churned away, and flat per-node measurement arrays key
	// by slot.
	slots    []*Node
	slotFree []int32

	// invGen is the current inventory generation. Every per-node
	// inventory marker is a stamp compared against it: bumping the
	// generation invalidates all node state at once, which is all
	// ResetInventory does.
	invGen uint32
	// hashIdx assigns each distinct inventory hash of the current
	// generation a dense index; hashN counts them. The registry is the
	// only inventory state cleared on reset, and its size is the number
	// of in-flight hashes per run (one, for a measurement flood).
	hashIdx map[chain.Hash]int32
	hashN   int32
	// spenders maps an output to the dense hash indices of the transactions
	// of this generation that spend it, in the order nodes first accepted
	// them: what Node.acceptTx reads to keep the first of two conflicting
	// spends. ResetInventory clears it with hashIdx, whose indices it holds.
	spenders map[chain.Outpoint][]int32
	// peerWords is the per-hash holder bitset width in uint64 words,
	// fixed by MaxPeers.
	peerWords int32

	// dc is the network's one dispatch context: the keyed RNG scratch,
	// in-flight record arena, traffic counters and trace shard that every
	// send and delivery goes through.
	dc dispatchCtx
	// arriveTag, verifyTag and probeTag are the scheduler tags of the three
	// indexed events over that arena: a message landing, a verification
	// ending, a ProbeN ping falling due.
	arriveTag, verifyTag, probeTag uint32
	// pingSize is the framed size of a ping, pad included.
	pingSize int

	// OnTxFirstSeen fires when a node accepts a transaction it had not
	// seen before (after verification delay). Measurement hooks in; the
	// node is handed over itself, so a hook keyed by Slot looks nothing up.
	OnTxFirstSeen func(node *Node, tx chain.Hash, at sim.Time)
	// OnBlockFirstSeen fires when a node accepts a block it had not seen
	// before (after verification delay).
	OnBlockFirstSeen func(node *Node, block chain.Hash, at sim.Time)
	// OnDisconnect fires after a connection is torn down, letting the
	// topology manager refill the peer's slots.
	OnDisconnect func(a, b NodeID)
}

type linkKey struct{ lo, hi NodeID }

func mkLinkKey(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{lo: a, hi: b}
}

// NewNetwork creates an empty network.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.MaxOutbound <= 0 || cfg.MaxPeers <= 0 {
		return nil, errors.New("p2p: MaxOutbound and MaxPeers must be positive")
	}
	if cfg.MaxOutbound > cfg.MaxPeers {
		return nil, fmt.Errorf("p2p: MaxOutbound %d > MaxPeers %d", cfg.MaxOutbound, cfg.MaxPeers)
	}
	if cfg.MaxPeers > math.MaxInt16 {
		// An in-flight record carries an adjacency position as an int16.
		return nil, fmt.Errorf("p2p: MaxPeers %d > %d", cfg.MaxPeers, math.MaxInt16)
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return nil, fmt.Errorf("p2p: LossProb %g outside [0,1)", cfg.LossProb)
	}
	model, err := latency.NewModel(cfg.Latency)
	if err != nil {
		return nil, err
	}
	streams := sim.NewStreams(cfg.Seed)
	n := &Network{
		cfg:       cfg,
		sched:     sim.NewScheduler(),
		streams:   streams,
		model:     model,
		nodes:     make(map[NodeID]*Node),
		links:     make(map[linkKey]latency.Link),
		invGen:    1,
		hashIdx:   make(map[chain.Hash]int32, 16),
		spenders:  make(map[chain.Outpoint][]int32),
		peerWords: int32((cfg.MaxPeers + 63) / 64),
	}
	n.dc.krand = rand.New(&n.dc.ksrc)
	n.arriveTag = n.sched.Handle(n.arrive)
	n.verifyTag = n.sched.Handle(n.verified)
	n.probeTag = n.sched.Handle(n.probeDue)
	n.pingSize = pingMinSize + max(0, cfg.Latency.PingBytes-12) // pad: what nonce and length prefix leave
	return n, nil
}

// Reserve pre-sizes the network's node tables for an expected
// population, so a large build does not pay incremental map and slice
// growth. Calling it after nodes exist, or not at all, only costs
// amortised growth — behaviour is identical either way. The links table
// is not pre-sized: how many pairs a topology policy will message by ID
// (none, for a random overlay) is not something the node count says.
func (n *Network) Reserve(nodes int) {
	if nodes <= 0 || len(n.nodes) > 0 {
		return
	}
	n.nodes = make(map[NodeID]*Node, nodes)
	n.slots = make([]*Node, 0, nodes)
}

// Scheduler exposes the simulation clock and event queue.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Streams exposes the named random streams.
func (n *Network) Streams() *sim.Streams { return n.streams }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Stats returns a snapshot of the message counters.
func (n *Network) Stats() Stats { return n.dc.stats }

// EnableTrace attaches an event tracer: message send/loss/deliver/drop
// and inventory first-sight events are recorded into the tracer's shard 0,
// stamped with simulation time. Shard 0 is the driving goroutine's, shared
// with the measurement hooks (measure.MeasuringNode.Trace) that run on it.
// Tracing is purely observational: enabling it changes no schedule, no RNG
// draw, and no output byte — the golden-CSV tests pin that.
//
// Enable between runs, not mid-flood. Passing nil disables.
func (n *Network) EnableTrace(t *obs.Tracer) {
	if t == nil {
		n.DisableTrace()
		return
	}
	n.dc.trace = t.Shard(0)
}

// DisableTrace detaches the tracer. Recorded events remain readable on
// the tracer itself.
func (n *Network) DisableTrace() { n.dc.trace = nil }

// ResetStats zeroes the message counters (used between measurement runs).
func (n *Network) ResetStats() { n.dc.stats = Stats{} }

// Now returns the current virtual time.
func (n *Network) Now() sim.Time { return n.sched.Now() }

// NumNodes returns the number of live nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// SlotCap returns the dense node table size: every live node's Slot() is
// below it. Flat per-node arrays (measurement watch sets) size themselves
// by it.
func (n *Network) SlotCap() int { return len(n.slots) }

// SlotOf returns the dense slot index for a live node ID.
func (n *Network) SlotOf(id NodeID) (int, bool) {
	node, ok := n.nodes[id]
	if !ok {
		return 0, false
	}
	return int(node.slot), true
}

// AddNode creates a node at the given location and returns it, with no
// peers and an empty inventory. It keeps no ledger of its own: every node
// validates by the same rule (Config), whatever the experiment.
func (n *Network) AddNode(loc geo.Location) *Node {
	n.nextID++
	id := n.nextID
	node := &Node{
		id:  id,
		loc: loc,
		net: n,
	}
	if last := len(n.slotFree) - 1; last >= 0 {
		node.slot = n.slotFree[last]
		n.slotFree = n.slotFree[:last]
		n.slots[node.slot] = node
	} else {
		node.slot = int32(len(n.slots))
		n.slots = append(n.slots, node)
	}
	n.nodes[id] = node
	return node
}

// Node returns the node with the given ID, if it exists.
func (n *Network) Node(id NodeID) (*Node, bool) {
	node, ok := n.nodes[id]
	return node, ok
}

// NodeIDs returns all live node IDs in ascending order.
func (n *Network) NodeIDs() []NodeID {
	ids := make([]NodeID, 0, len(n.nodes))
	for id := NodeID(1); id <= n.nextID; id++ {
		if _, ok := n.nodes[id]; ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// RemoveNode disconnects and deletes a node (a churn "leave" event).
// Removing an unknown node is a no-op. The node is deleted from the
// network before OnDisconnect fires, so refill logic running inside the
// callback can never reconnect to the departing node; peers are processed
// in sorted order for determinism.
func (n *Network) RemoveNode(id NodeID) {
	node, ok := n.nodes[id]
	if !ok {
		return
	}
	delete(n.nodes, id)
	n.slots[node.slot] = nil
	n.slotFree = append(n.slotFree, node.slot)
	for _, peerID := range node.Peers() {
		node.removePeer(peerID)
		if nb, ok := n.nodes[peerID]; ok {
			nb.removePeer(id)
		}
		if n.OnDisconnect != nil {
			n.OnDisconnect(id, peerID)
		}
	}
}

// --- dense hash registry ---

// hashSlot returns (assigning on first use) the dense index for an
// inventory hash in the current generation. A flood asks about one hash
// tens of thousands of times in a row — every INV, GETDATA and TX of it —
// so the dispatch context remembers the last answer (dispatchCtx.memoHash)
// and only a different hash reaches the map. Index assignment order does
// not affect observables — indices only key flat arrays.
func (n *Network) hashSlot(h chain.Hash) int32 {
	dc := &n.dc
	if dc.memoGen == n.invGen && dc.memoHash == h {
		return dc.memoIdx
	}
	hi, ok := n.hashIdx[h]
	if !ok {
		hi = n.hashN
		n.hashN++
		n.hashIdx[h] = hi
	}
	dc.memoHash, dc.memoIdx, dc.memoGen = h, hi, n.invGen
	return hi
}

// findHash returns the dense index for a hash without assigning one,
// through the same memo: an index, once assigned, holds for the generation.
func (n *Network) findHash(h chain.Hash) (int32, bool) {
	dc := &n.dc
	if dc.memoGen == n.invGen && dc.memoHash == h {
		return dc.memoIdx, true
	}
	hi, ok := n.hashIdx[h]
	if ok {
		dc.memoHash, dc.memoIdx, dc.memoGen = h, hi, n.invGen
	}
	return hi, ok
}

// ActiveHashes returns the number of distinct inventory hashes seen this
// generation — the width of every node's flat inventory arrays.
func (n *Network) ActiveHashes() int { return int(n.hashN) }

// link returns (drawing on first use) the memoised latency link of a pair
// that messages by ID; a connection's link is edgeLink's. Link parameters
// are drawn from a keyed source derived from the (seed, endpoint pair), not
// from a shared sequential stream, so a link's last-mile draw is
// independent of creation order and of who asks — the reason a pair gets
// the same link here, in its peer entries once it connects, and from the
// ProbeN that measured it. The slow path runs once per pair.
func (n *Network) link(a, b *Node) latency.Link {
	key := mkLinkKey(a.id, b.id)
	if l, ok := n.links[key]; ok {
		return l
	}
	l := n.makeLink(key, a, b)
	n.links[key] = l
	return l
}

// edgeLink returns the latency link of the connection at nd's adjacency
// position pos, read from the peer entry. The baseline is resolved on the
// edge's first use, once, and written to both sides through rpos — so a
// Connect costs no link draw and a flood pays one per edge, whichever
// side sends first.
func (n *Network) edgeLink(nd *Node, pos int32) latency.Link {
	e := &nd.peerTab[pos]
	if e.base == 0 {
		n.resolveEdge(nd, pos)
	}
	return n.model.NewLinkWithBase(e.base)
}

// resolveEdge draws the link of the connection at nd's position pos and
// stores its baseline in both peer entries.
func (n *Network) resolveEdge(nd *Node, pos int32) {
	peer, rpos := nd.peerTab[pos].node, nd.peerTab[pos].rpos
	base := n.makeLink(mkLinkKey(nd.id, peer.id), nd, peer).Base()
	nd.peerTab[pos].base = base
	peer.peerTab[rpos].base = base
}

// makeLink draws the link's latency parameters from the pair-keyed source.
func (n *Network) makeLink(key linkKey, a, b *Node) latency.Link {
	n.linkDraws++
	var ks sim.KeyedSource
	ks.SeedKey(sim.MixKey3(uint64(n.cfg.Seed)^linkKeyTag, uint64(key.lo), uint64(key.hi)))
	// Cold path: runs once per node pair at link creation.
	r := rand.New(&ks)
	return n.model.NewLink(r, a.loc.Coord, b.loc.Coord)
}

// BaseRTT returns the congestion-free round-trip time between two nodes —
// the simulator's ground truth, used by experiments to verify clustering
// quality. Returns false if either node is gone.
func (n *Network) BaseRTT(a, b NodeID) (time.Duration, bool) {
	na, ok := n.nodes[a]
	if !ok {
		return 0, false
	}
	nb, ok := n.nodes[b]
	if !ok {
		return 0, false
	}
	return n.link(na, nb).Base(), true
}

// arrive is the indexed event of a message landing: idx is its record in
// the arena. The record is copied out and freed before the message is
// handled, so handlers that immediately send (relay) write into the
// record just read.
func (n *Network) arrive(idx int32) {
	dc := &n.dc
	d := dc.takeFlight(idx)
	cmd := d.cmd
	var msg wire.Message
	if cmd == 0 {
		msg, dc.flightMsg[idx] = dc.flightMsg[idx], nil
		cmd = msg.Command()
	}
	node := d.dst
	// The destination may have churned away mid-flight.
	if !node.live() {
		dc.stats.Dropped++
		if cmd == wire.CmdPing || cmd == wire.CmdPong {
			dc.takeDone(d.hi)
		}
		if dc.trace != nil {
			dc.trace.Record(obs.Event{At: n.sched.Now(), Kind: obs.KindDrop, Code: uint8(cmd),
				P1: uint64(d.src.id), P2: uint64(node.id)})
		}
		return
	}
	if dc.trace != nil {
		dc.trace.Record(obs.Event{At: n.sched.Now(), Kind: obs.KindDeliver, Code: uint8(cmd),
			P1: uint64(d.src.id), P2: uint64(node.id)})
	}
	switch d.cmd {
	case wire.CmdInv:
		node.handleInv(&d)
	case wire.CmdGetData:
		node.handleGetData(&d)
	case wire.CmdTx, wire.CmdBlock:
		node.handleObject(&d)
	case wire.CmdPing:
		node.pong(&d)
	case wire.CmdPong:
		node.handlePong(&d)
	default:
		node.handleMessage(d.src.id, msg)
	}
}

// deliver schedules a message to arrive at dst after serialization on the
// sender's uplink plus the link's sampled one-way delay. The uplink is a
// serial resource: concurrent sends queue behind each other (the rate(r)
// and queuing terms of eqs. 2 and 4 applied to all traffic, not just
// pings) — this is what makes announcing to many peers progressively
// slower for the later ones.
//
// Every random draw here is keyed by (seed, sender, per-sender send
// sequence) rather than pulled from a shared sequential stream: the loss
// coin and the delay sample for a given send are the same values no
// matter what else the network sent before it.
//
// pos is dst's adjacency position at src, or -1 for a message addressed
// by ID: it selects where the link comes from (the peer entry, or base,
// the baseline the caller resolved for the pair) and what the record
// tells the receiver about its sender's position. cmd and size are the
// message's command and framed size; msg is the message itself when it is
// one the record has no fields for, nil otherwise. inv is the dense hash
// index an INV from Node.announce names, -1 for every other message: such an
// INV, sent with no tracer attached to a receiver its landing could tell
// nothing new, leaves as a ticket at the receiver and not as a record and an
// event (Node.lazyInv) — counted, loss-tested, queued on the uplink and
// delayed like any send, only not simulated landing. The caller writes what
// the message carries into the record returned — the one in flight, or the
// dispatch context's scratch record when the message was lost or needs none.
func (n *Network) deliver(src, dst *Node, pos int32, base time.Duration, cmd wire.Command, size int, msg wire.Message, inv int32) *delivery {
	dc := &n.dc
	dc.stats.count(cmd, size)
	if dc.trace != nil {
		dc.trace.Record(obs.Event{At: n.sched.Now(), Kind: obs.KindSend, Code: uint8(cmd),
			P1: uint64(src.id), P2: uint64(dst.id), P3: uint64(size)})
	}
	src.sendSeq++
	dc.ksrc.SeedKey(sim.MixKey3(uint64(n.cfg.Seed)^sendKeyTag, uint64(src.id), src.sendSeq))
	if n.cfg.LossProb > 0 && dc.krand.Float64() < n.cfg.LossProb {
		dc.stats.Lost++
		if dc.trace != nil {
			dc.trace.Record(obs.Event{At: n.sched.Now(), Kind: obs.KindLoss, Code: uint8(cmd),
				P1: uint64(src.id), P2: uint64(dst.id), P3: uint64(size)})
		}
		return &dc.lost
	}
	txTime := time.Duration(float64(size) / n.cfg.Latency.RateBytesPerSec * float64(time.Second))
	now := n.sched.Now()
	start := now
	if src.uplinkFreeAt > start {
		start = src.uplinkFreeAt
	}
	src.uplinkFreeAt = start + txTime
	var link latency.Link
	srcPos := int32(-1)
	if pos >= 0 {
		link, srcPos = n.edgeLink(src, pos), src.peerTab[pos].rpos
	} else {
		link = n.model.NewLinkWithBase(base)
	}
	delay := (start + txTime - now) + link.SampleOneWay(dc.krand)
	if inv >= 0 && dc.trace == nil && dst.lazyInv(srcPos, inv, delay) {
		return &dc.lost
	}
	idx := dc.newFlight()
	d := &dc.flight[idx]
	*d = delivery{src: src, dst: dst, base: link.Base(), dstEpoch: dst.tabEpoch, srcPos: int16(srcPos), cmd: cmd}
	if msg != nil {
		d.cmd, dc.flightMsg[idx] = 0, msg
	}
	n.sched.AfterIndexed(delay, n.arriveTag, idx)
	return d
}

// Connection errors.
var (
	ErrSelfConnect   = errors.New("p2p: node cannot connect to itself")
	ErrAlreadyPeers  = errors.New("p2p: already connected")
	ErrPeerCapacity  = errors.New("p2p: peer at capacity")
	ErrUnknownNode   = errors.New("p2p: unknown node")
	ErrOutboundLimit = errors.New("p2p: outbound limit reached")
)

// Connect establishes a connection initiated by a to b. The handshake
// (version/verack) is charged one RTT plus message costs; the connection
// becomes usable immediately for the initiator's bookkeeping, matching
// the simulator granularity of the paper.
func (n *Network) Connect(a, b NodeID) error {
	return n.connect(a, b, true)
}

// ConnectUnbounded is Connect without the initiator's outbound cap —
// measurement instrumentation (the degree-sweep experiments wire the
// measuring node to arbitrary connection counts). MaxPeers still applies
// on both sides.
func (n *Network) ConnectUnbounded(a, b NodeID) error {
	return n.connect(a, b, false)
}

func (n *Network) connect(a, b NodeID, enforceOutbound bool) error {
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
	if na.peerPos(b) >= 0 {
		return ErrAlreadyPeers
	}
	if enforceOutbound && na.nOut >= n.cfg.MaxOutbound {
		return ErrOutboundLimit
	}
	if na.nPeers >= n.cfg.MaxPeers {
		return ErrOutboundLimit
	}
	if nb.nPeers >= n.cfg.MaxPeers {
		return ErrPeerCapacity
	}
	// Charge the handshake: version + verack each way.
	n.dc.stats.count(wire.CmdVersion, versionSize)
	n.dc.stats.count(wire.CmdVerack, verackSize)
	n.dc.stats.count(wire.CmdVersion, versionSize)
	n.dc.stats.count(wire.CmdVerack, verackSize)
	pa := na.addPeer(nb, true)
	pb := nb.addPeer(na, false)
	na.peerTab[pa].rpos, nb.peerTab[pb].rpos = pb, pa
	return nil
}

// approximate handshake frame sizes (header + typical payload).
const (
	versionSize = 13 + 4 + 26 + 4 + 1 + 10
	verackSize  = 13
)

// Disconnect tears down the connection between a and b (no-op if absent).
func (n *Network) Disconnect(a, b NodeID) {
	na, ok := n.nodes[a]
	if !ok {
		return
	}
	if na.peerPos(b) < 0 {
		return
	}
	n.teardown(na, b)
}

// teardown removes the edge from both sides and fires OnDisconnect.
func (n *Network) teardown(na *Node, b NodeID) {
	na.removePeer(b)
	if nb, ok := n.nodes[b]; ok {
		nb.removePeer(na.id)
	}
	if n.OnDisconnect != nil {
		n.OnDisconnect(na.id, b)
	}
}

// verified is the indexed event of a modelled verification delay ending:
// the record at idx names the verifying node (dst), the object, and the
// peer it came from (src).
func (n *Network) verified(idx int32) {
	d := n.dc.takeFlight(idx)
	node := d.dst
	if !node.live() {
		return // verifier churned out
	}
	if d.tx != nil {
		_ = node.acceptTx(d.tx, d.src.id) // invalid txs die here, by design
		return
	}
	_ = node.acceptBlock(d.block, d.src.id)
}

// probeDue is the indexed event of one of ProbeN's spaced pings falling due
// (see delivery for what its record holds). A prober that churned out in
// the meantime sends nothing; a target that did is a ping that cannot leave.
func (n *Network) probeDue(idx int32) {
	d := n.dc.takeFlight(idx)
	switch {
	case !d.src.live():
		n.dc.takeDone(d.hi)
	case d.dst == nil:
		// The ID named nobody when ProbeN ran; it may name a node by now.
		d.src.probe(NodeID(d.word), d.hi)
	case !d.dst.live():
		d.src.ping(nil, 0, d.hi)
	default:
		d.src.ping(d.dst, d.base, d.hi)
	}
}

// ResetInventory clears every node's seen-transaction state. Measurement
// harnesses call this between runs so memory stays bounded over thousands
// of injected transactions. With the generation-stamped layout this is a
// generation bump plus an O(active hashes) clear of the hash registry and
// of the spenders of each output: no per-node work at all.
//
// INVs still on their way as tickets are turned into the records they stand
// for first (Node.settleLazy), so that they land stale, as a record that the
// reset overtook does. A campaign resets a network it has run quiet, where
// the clock is past the last ticket and there is nothing to walk; only a
// reset in mid-flood visits the nodes.
func (n *Network) ResetInventory() {
	if dc := &n.dc; !dc.tickets.empty() {
		if dc.lazyAt >= n.sched.Now() {
			for _, node := range n.slots {
				if node != nil && node.inv.lazyGen == n.invGen {
					for pos := range node.inv.lazy {
						node.settleLazy(int32(pos))
					}
				}
			}
		}
		dc.tickets.reset()
		dc.lazyAt = 0
	}
	n.invGen++
	if n.invGen == 0 {
		// Generation counter wrapped (after ~4 billion resets): stale
		// stamps could alias the new generation, so hard-reset every
		// node's arrays and the hash memo once and restart from
		// generation 1.
		n.invGen = 1
		n.dc.memoGen = 0
		for _, node := range n.slots {
			if node != nil {
				node.inv = nodeInv{}
			}
		}
	}
	clear(n.hashIdx)
	clear(n.spenders)
	n.hashN = 0
}

// StartKeepalive begins the periodic peer-ping service configured by
// Config.PingInterval: every interval, every node pings each of its
// peers, feeding the RTT estimators that cluster maintenance reads (the
// paper's repeated measurement requirement, §IV.A). Returns nil when
// PingInterval is zero. Stop the returned ticker to halt the service —
// otherwise the event queue never drains (use RunUntil).
func (n *Network) StartKeepalive() *sim.Ticker {
	if n.cfg.PingInterval <= 0 {
		return nil
	}
	return n.sched.NewTicker(n.cfg.PingInterval, func() {
		for _, id := range n.NodeIDs() {
			node, ok := n.nodes[id]
			if !ok {
				continue
			}
			node.EachPeer(func(id NodeID) bool {
				node.Probe(id, nil)
				return true
			})
		}
	})
}

// Run drains the event queue.
func (n *Network) Run() error { return n.sched.Run() }

// StopRun halts the current run from inside an event callback: the
// scheduler stops after the running event.
func (n *Network) StopRun() { n.sched.Stop() }

// RunUntil processes events up to the virtual-time limit, polling ctx so
// a long run — a large BCBPT bootstrap, a deep measurement campaign — is
// promptly cancellable. On cancellation it returns an error wrapping
// ctx.Err() with the virtual time reached; pending events stay queued.
func (n *Network) RunUntil(ctx context.Context, limit sim.Time) error {
	err := n.sched.RunUntilCtx(ctx, limit)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("p2p: run interrupted at t=%v: %w", n.Now(), err)
	}
	return err
}

// Close releases a network that will not run again: it stops the
// scheduler, drops every pending event (whose closures otherwise pin
// nodes and messages live) and with them the in-flight records they
// index and the ticket pool, and detaches the measurement and topology hooks. Build harnesses
// call it on their error paths so an abandoned half-bootstrapped network
// cannot keep state alive or resume by accident. Close is idempotent; node
// state stays readable.
func (n *Network) Close() {
	n.sched.Stop()
	n.sched.Clear()
	n.dc.flight, n.dc.flightMsg, n.dc.flightFree, n.dc.tickets = nil, nil, nil, ticketPool{}
	n.dc.probeDone, n.dc.doneFree = nil, nil
	n.OnTxFirstSeen = nil
	n.OnBlockFirstSeen = nil
	n.OnDisconnect = nil
	n.DisableTrace()
}
