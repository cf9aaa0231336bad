package p2p

import (
	"repro/internal/chain"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Block relay: the same INV/GETDATA exchange as transactions (Fig. 1
// applies to both — "blocks and transactions are broadcasted in the
// entire network in order to synchronize the replicas of the public
// ledger", §III). Blocks are larger and costlier to verify, so their
// propagation amplifies the same per-hop latency effects the transaction
// experiments measure.

// SubmitBlock injects a locally mined block: records it and announces it
// to all peers.
func (nd *Node) SubmitBlock(b *chain.Block) error {
	return nd.acceptBlock(b, 0)
}

// acceptBlock records and relays a block. from == 0 means local origin.
func (nd *Node) acceptBlock(b *chain.Block, from NodeID) error {
	h := b.Header.Hash()
	if e := nd.entryFor(h); e != nil && e.seenGen == nd.net.invGen {
		return nil
	}
	// Structural checks only: full contextual validation needs a chain
	// view, which the propagation experiments do not attach per node.
	if nd.net.cfg.Validation != ValidationNone {
		if !b.Header.CheckPoW() {
			return chain.ErrBadSignature // reuse sentinel: invalid proof dies here
		}
		if b.Header.MerkleRoot != chain.MerkleRoot(b.Txs) {
			return chain.ErrBadSignature
		}
	}
	hi := nd.net.hashSlot(h)
	e := nd.invEnsure(hi)
	e.seenGen = nd.net.invGen
	e.seenAt = nd.now()
	nd.storeBlock(hi, b)
	e.reqGen = 0
	if tr := nd.net.dc.trace; tr != nil {
		tr.Record(obs.Event{At: nd.now(), Kind: obs.KindFirstSeen, P1: uint64(nd.id), P2: hashPrefix(h)})
	}
	if nd.net.OnBlockFirstSeen != nil {
		nd.net.OnBlockFirstSeen(nd.id, h, nd.now())
	}
	nd.announceBlock(hi, h, from)
	return nil
}

// announceBlock sends a block INV to every peer not known to have it.
// As with transaction announce, each recipient gets its own pooled INV,
// recycled once handled.
func (nd *Node) announceBlock(hi int32, h chain.Hash, except NodeID) {
	for _, ref := range nd.sortedPeers() {
		if ref.id == except {
			continue
		}
		if nd.holderHas(hi, ref.pos) {
			continue
		}
		nd.sendTo(ref.pos, ref.id, nd.net.dc.newInv(wire.InvBlock, h))
	}
}

// handleBlockInv requests announced blocks we have not seen. Called from
// handleInv for InvBlock items; fromPos is the sender's adjacency
// position (or -1), computed once there.
func (nd *Node) handleBlockInv(from NodeID, fromPos int32, items []wire.InvVect) {
	want := nd.net.dc.newGetData()
	gen := nd.net.invGen
	for _, item := range items {
		hi := nd.net.hashSlot(item.Hash)
		nd.markPeerHas(from, fromPos, hi)
		e := nd.invEnsure(hi)
		if e.seenGen == gen || e.reqGen == gen {
			continue
		}
		e.reqGen = gen
		want.Items = append(want.Items, item)
	}
	if len(want.Items) > 0 {
		nd.sendTo(fromPos, from, want)
	} else {
		nd.net.dc.recycleMessage(want)
	}
}

// handleBlock verifies (with modelled delay) then accepts and relays.
func (nd *Node) handleBlock(from NodeID, fromPos int32, m *wire.MsgBlock) {
	b := m.Block
	h := b.Header.Hash()
	nd.markPeerHas(from, fromPos, nd.net.hashSlot(h))
	if e := nd.entryFor(h); e != nil && e.seenGen == nd.net.invGen {
		return
	}
	utxoLen := 0
	if nd.mempool != nil {
		utxoLen = nd.mempool.Len()
	}
	cost := nd.net.cfg.VerifyCost.BlockCost(b, utxoLen)
	nd.net.sched.AfterCall(cost, runVerify, nd.net.dc.newVerifyJob(nd.net, nd.slot, nd.id, from, nil, b))
}

// HasBlock reports whether the node holds the block.
func (nd *Node) HasBlock(h chain.Hash) bool {
	if hi, ok := nd.net.findHash(h); ok {
		_, has := nd.blockFor(hi)
		return has
	}
	return false
}
