package p2p

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Conservative parallel dispatch for the flood path.
//
// The network's nodes are partitioned into event domains (the topology's
// clusters — see EnableParallelDispatch), each owning one partition of a
// sim.WindowScheduler. Every event a node executes — message handling,
// verification, probing — runs in that node's partition; sends to a node
// in the same partition schedule directly on the partition scheduler,
// while sends to another partition are staged and committed at the window
// barrier in canonical (at, sender, sendSeq) order. The lookahead bound
// certifying the windows is the minimum latency floor over cross-partition
// peer links (latency.Link.FloorOneWay): a message can never cross
// partitions in less virtual time, so events within one window are
// causally independent across partitions.
//
// Bit-identity with the serial kernel follows from two properties. First,
// all randomness on the delivery path is keyed by stable identities (see
// Network.deliver and Network.makeLink) rather than drawn from shared
// sequential streams, so values do not depend on global dispatch order.
// Second, each node's event sequence is totally ordered by its partition's
// (at, seq) heap, and the commit order of cross-partition events is the
// canonical (at, sender, sendSeq) — the same order the serial kernel
// would deliver them in, up to exact virtual-time ties between distinct
// senders, which the continuous delay model makes a measure-zero event.
//
// The mode is strictly a dispatch strategy: enabling it with any worker
// or partition count yields byte-identical measurements, CSVs and stats
// to the serial kernel. Topology mutation (add/remove/connect/disconnect)
// is forbidden while enabled; experiments with churn stay serial.

// Key-derivation tags separating the keyed RNG domains ("send" and
// "link" in ASCII, padded). Changing either changes every sampled delay.
const (
	sendKeyTag uint64 = 0x73656e644b657931 // "sendKey1"
	linkKeyTag uint64 = 0x6c696e6b4b657931 // "linkKey1"
)

// dispatchCtx is the per-partition dispatch state: scheduler, keyed RNG
// scratch, payload/message pools, and traffic counters. Serial mode uses
// a single context (Network.serial); parallel mode gives each partition
// its own, so the hot path never shares mutable state across workers.
type dispatchCtx struct {
	sched *sim.Scheduler
	part  int32
	stats Stats

	// memoHash/memoIdx are the hash registry's last answer to a node of
	// this context, valid while memoGen is the network's inventory
	// generation (see Network.hashSlot). Zero is never a generation.
	memoHash chain.Hash
	memoIdx  int32
	memoGen  uint32

	// ksrc/krand are the keyed delivery RNG: ksrc is re-keyed per send
	// and krand adapts it to Float64/NormFloat64 without allocating.
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
	// pingPad is the shared ping padding buffer (write-never data); one
	// per context so concurrent partitions never share a grow race.
	pingPad []byte

	// trace is the context's event-trace shard, nil unless tracing is
	// enabled (Network.EnableTrace). Each context owns its shard —
	// single-writer by construction, like stats — so the enabled path
	// records without locks and the disabled path costs one nil check.
	trace *obs.Shard
}

// init wires the context to its scheduler. The krand wrapper points at
// the embedded ksrc, so the context must not be copied after init.
func (dc *dispatchCtx) init(sched *sim.Scheduler, part int32) {
	dc.sched = sched
	dc.part = part
	dc.krand = rand.New(&dc.ksrc) // once per dispatch context at construction
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
// and shared by every ping in flight from this context.
func (dc *dispatchCtx) sharedPad(size int) []byte {
	if size > len(dc.pingPad) {
		dc.pingPad = make([]byte, size)
	}
	return dc.pingPad[:size]
}

// newDelivery pops a pooled payload (or allocates on first use).
func (dc *dispatchCtx) newDelivery(n *Network, src NodeID, srcPos int32, dst *Node, msg wire.Message) *delivery {
	if last := len(dc.deliveryPool) - 1; last >= 0 {
		d := dc.deliveryPool[last]
		dc.deliveryPool = dc.deliveryPool[:last]
		d.src, d.srcPos, d.dstSlot, d.dstID, d.dstEpoch, d.msg = src, srcPos, dst.slot, dst.id, dst.tabEpoch, msg
		return d
	}
	return &delivery{net: n, src: src, srcPos: srcPos, dstSlot: dst.slot, dstID: dst.id, dstEpoch: dst.tabEpoch, msg: msg}
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
func (dc *dispatchCtx) newProbeJob(n *Network, slot int32, id, target NodeID, onPong func(time.Duration)) *probeJob {
	if last := len(dc.probePool) - 1; last >= 0 {
		j := dc.probePool[last]
		dc.probePool = dc.probePool[:last]
		j.slot, j.id, j.target, j.onPong = slot, id, target, onPong
		return j
	}
	return &probeJob{net: n, slot: slot, id: id, target: target, onPong: onPong}
}

// add merges o's counters into s (exact: flat array addition).
func (s *Stats) add(o *Stats) {
	for i := range s.Messages {
		s.Messages[i] += o.Messages[i]
		s.Bytes[i] += o.Bytes[i]
	}
	s.Dropped += o.Dropped
	s.Lost += o.Lost
}

// rebalancePool evens one pooled type back out across partitions. Pooled
// objects migrate: a cross-partition message is allocated from the
// sender's pool and freed into the receiver's, and the drift is
// systematic — the node that feeds a neighbour its first copy sends two
// payloads (INV, TX) and gets one back (GETDATA), so the same partitions
// drain a little on every flood and would allocate afresh each run
// forever. An even split between runs makes the totals converge: a
// partition that still misses allocates, the new object joins the shared
// stock, and once every partition's share covers its worst-case
// per-run deficit the steady state allocates nothing.
func rebalancePool[T any](parts []*dispatchCtx, pool func(*dispatchCtx) *[]T) {
	n := len(parts)
	total := 0
	for _, dc := range parts {
		total += len(*pool(dc))
	}
	share, extra := total/n, total%n
	j := 0
	for i := 0; i < n; i++ {
		src := pool(parts[i])
		ti := share
		if i < extra {
			ti++
		}
		for len(*src) > ti {
			// Advance j to the next partition still below target.
			for {
				if j >= n {
					return
				}
				tj := share
				if j < extra {
					tj++
				}
				if j != i && len(*pool(parts[j])) < tj {
					break
				}
				j++
			}
			dst := pool(parts[j])
			tj := share
			if j < extra {
				tj++
			}
			move := len(*src) - ti
			if d := tj - len(*dst); d < move {
				move = d
			}
			k := len(*src) - move
			*dst = append(*dst, (*src)[k:]...)
			clear((*src)[k:])
			*src = (*src)[:k]
		}
	}
}

// rebalancePools evens every pooled type across partitions. Called from
// ResetInventory (between runs, driver goroutine, workers idle) so pool
// drift cannot accumulate across a campaign.
func (p *parallelState) rebalancePools() {
	rebalancePool(p.parts, func(dc *dispatchCtx) *[]*delivery { return &dc.deliveryPool })
	rebalancePool(p.parts, func(dc *dispatchCtx) *[]*verifyJob { return &dc.verifyPool })
	rebalancePool(p.parts, func(dc *dispatchCtx) *[]*probeJob { return &dc.probePool })
	rebalancePool(p.parts, func(dc *dispatchCtx) *[]*wire.MsgPing { return &dc.pingPool })
	rebalancePool(p.parts, func(dc *dispatchCtx) *[]*wire.MsgPong { return &dc.pongPool })
	rebalancePool(p.parts, func(dc *dispatchCtx) *[]*wire.MsgGetData { return &dc.getDataPool })
	rebalancePool(p.parts, func(dc *dispatchCtx) *[]*wire.MsgInv { return &dc.invPool })
	rebalancePool(p.parts, func(dc *dispatchCtx) *[]*wire.MsgTx { return &dc.txMsgPool })
	rebalancePool(p.parts, func(dc *dispatchCtx) *[]*wire.MsgBlock { return &dc.blockMsgPool })
}

// PartitionPlan assigns every live node slot to an event domain.
type PartitionPlan struct {
	// Parts is the number of partitions (>= 2).
	Parts int
	// Of maps a node's dense slot index to its partition. It must cover
	// SlotCap() entries; entries for free slots are ignored.
	Of []int32
}

// parallelState is the network's parallel-mode machinery, non-nil while
// enabled.
type parallelState struct {
	ws        *sim.WindowScheduler
	plan      PartitionPlan
	parts     []*dispatchCtx
	lookahead time.Duration
}

// ParallelLookahead returns the certified window bound while parallel
// dispatch is enabled, for diagnostics and tests.
func (n *Network) ParallelLookahead() (time.Duration, bool) {
	if n.par == nil {
		return 0, false
	}
	return n.par.lookahead, true
}

// EnableParallelDispatch switches the network to conservative parallel
// dispatch with the given partition plan and worker count. Requirements:
// no parallel mode already active, no pending events (enable between
// runs, not mid-flood), at least two partitions, and every live node
// assigned a valid partition.
//
// Enabling resolves the link of every peer entry, so no window ever
// writes an entry or takes the link lock for a peer send, and computes
// the lookahead bound as the minimum FloorOneWay over the cross-partition
// ones. Traffic between non-peered nodes in different partitions (e.g.
// cross-partition probes) is not covered by the bound and will panic at
// the window barrier if it undercuts it — parallel mode is for relay
// floods over the peer graph.
//
// Results are byte-identical to serial for any plan and worker count;
// only wall-clock time changes. Topology mutation while enabled panics.
func (n *Network) EnableParallelDispatch(plan PartitionPlan, workers int) error {
	if n.par != nil {
		return errors.New("p2p: parallel dispatch already enabled")
	}
	if workers < 2 {
		return fmt.Errorf("p2p: parallel dispatch needs >= 2 workers, got %d", workers)
	}
	if plan.Parts < 2 {
		return fmt.Errorf("p2p: parallel dispatch needs >= 2 partitions, got %d", plan.Parts)
	}
	if len(plan.Of) < len(n.slots) {
		return fmt.Errorf("p2p: partition plan covers %d slots, network has %d", len(plan.Of), len(n.slots))
	}
	if n.sched.Len() != 0 {
		return fmt.Errorf("p2p: cannot enable parallel dispatch with %d pending events", n.sched.Len())
	}
	lookahead := time.Duration(0)
	crossEdges := 0
	for _, nd := range n.slots {
		if nd == nil {
			continue
		}
		p := plan.Of[nd.slot]
		if p < 0 || int(p) >= plan.Parts {
			return fmt.Errorf("p2p: node %d (slot %d) assigned invalid partition %d", nd.id, nd.slot, p)
		}
		for _, ref := range nd.sortedPeers() {
			if ref.id <= nd.id {
				continue // each edge once, from its lower endpoint
			}
			link := n.edgeLink(nd, ref.pos)
			if plan.Of[nd.peerTab[ref.pos].node.slot] == p {
				continue
			}
			f := link.FloorOneWay()
			if crossEdges == 0 || f < lookahead {
				lookahead = f
			}
			crossEdges++
		}
	}
	if crossEdges == 0 {
		// No cross-partition peer edges at all: the partitions are fully
		// independent and any positive window is conservative.
		lookahead = time.Second
	}
	if lookahead <= 0 {
		return fmt.Errorf("p2p: non-positive lookahead %v across %d cross-partition links", lookahead, crossEdges)
	}
	ws, err := sim.NewWindowScheduler(plan.Parts, workers, lookahead)
	if err != nil {
		return err
	}
	now := n.sched.Now()
	parts := make([]*dispatchCtx, plan.Parts)
	for i := range parts {
		ps := ws.Part(i)
		if now > 0 {
			// Align the fresh partition clocks with the network clock.
			if err := ps.RunUntilCtx(context.Background(), now); err != nil {
				ws.Close()
				return fmt.Errorf("p2p: aligning partition %d clock: %w", i, err)
			}
		}
		dc := &dispatchCtx{}
		dc.init(ps, int32(i))
		if n.tracer != nil {
			// Shard 0 is the driving goroutine's (serial context, window
			// control, measurement); partition i records on shard 1+i.
			dc.trace = n.tracer.Shard(1 + i)
		}
		parts[i] = dc
	}
	for _, nd := range n.slots {
		if nd != nil {
			nd.dctx = parts[plan.Of[nd.slot]]
		}
	}
	n.par = &parallelState{ws: ws, plan: plan, parts: parts, lookahead: lookahead}
	n.wireWindowTrace()
	return nil
}

// wireWindowTrace points the window scheduler's observability hooks at
// the tracer, or clears them. The hooks fire on the driving goroutine —
// the same goroutine that owns shard 0 — so recording there preserves
// the single-writer-per-shard discipline.
func (n *Network) wireWindowTrace() {
	if n.par == nil {
		return
	}
	ws := n.par.ws
	if n.tracer == nil {
		ws.OnWindowOpen, ws.OnWindowBarrier, ws.OnWindowCommit = nil, nil, nil
		return
	}
	tr := n.tracer.Shard(0)
	ws.OnWindowOpen = func(open, horizon sim.Time, index uint64) {
		// P2 is the window span in nanos: the JSON export renders the
		// open event as a complete slice with that duration.
		tr.Record(obs.Event{At: open, Kind: obs.KindWindowOpen, P1: index, P2: uint64(horizon - open + 1)})
	}
	ws.OnWindowBarrier = func(horizon sim.Time, index uint64, spanNanos int64) {
		tr.Record(obs.Event{At: horizon, Kind: obs.KindWindowBarrier, P1: index, P2: uint64(spanNanos)})
	}
	ws.OnWindowCommit = func(now sim.Time, index uint64, staged int) {
		tr.Record(obs.Event{At: now, Kind: obs.KindWindowCommit, P1: index, P2: uint64(staged)})
	}
}

// EnableWindowProfile installs a PDES window profile on the parallel
// dispatcher, accumulating per-partition busy time and window spans via
// the injected nanosecond clock (p2p is a deterministic package: it
// never reads the wall clock itself). Returns nil when the network is
// in serial mode — profiling is a parallel-dispatch diagnostic.
func (n *Network) EnableWindowProfile(clock func() int64) *sim.WindowProfile {
	if n.par == nil {
		return nil
	}
	return n.par.ws.EnableProfile(clock)
}

// DisableParallelDispatch returns the network to serial dispatch,
// folding partition counters and pools back into the serial context. It
// requires drained partitions (disable between runs) and advances the
// serial clock to the parallel clock so time never goes backward.
func (n *Network) DisableParallelDispatch() error {
	if n.par == nil {
		return nil
	}
	if pending := n.par.ws.Len(); pending != 0 {
		return fmt.Errorf("p2p: cannot disable parallel dispatch with %d pending events", pending)
	}
	if now := n.par.ws.Now(); now > n.sched.Now() {
		if err := n.sched.RunUntilCtx(context.Background(), now); err != nil {
			return fmt.Errorf("p2p: advancing serial clock: %w", err)
		}
	}
	for _, dc := range n.par.parts {
		n.serial.stats.add(&dc.stats)
		n.serial.deliveryPool = append(n.serial.deliveryPool, dc.deliveryPool...)
		n.serial.verifyPool = append(n.serial.verifyPool, dc.verifyPool...)
		n.serial.probePool = append(n.serial.probePool, dc.probePool...)
		n.serial.pingPool = append(n.serial.pingPool, dc.pingPool...)
		n.serial.pongPool = append(n.serial.pongPool, dc.pongPool...)
		n.serial.getDataPool = append(n.serial.getDataPool, dc.getDataPool...)
		n.serial.invPool = append(n.serial.invPool, dc.invPool...)
		n.serial.txMsgPool = append(n.serial.txMsgPool, dc.txMsgPool...)
		n.serial.blockMsgPool = append(n.serial.blockMsgPool, dc.blockMsgPool...)
	}
	for _, nd := range n.slots {
		if nd != nil {
			nd.dctx = &n.serial
		}
	}
	n.par.ws.Close()
	n.par = nil
	return nil
}
