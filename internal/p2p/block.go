package p2p

import (
	"errors"

	"repro/internal/chain"
	"repro/internal/obs"
)

// Block relay: the same INV/GETDATA exchange as transactions (Fig. 1
// applies to both — "blocks and transactions are broadcasted in the
// entire network in order to synchronize the replicas of the public
// ledger", §III) through the same handlers (handleInv, handleGetData,
// handleObject). Blocks are larger and costlier to verify, so their
// propagation amplifies the same per-hop latency effects the transaction
// experiments measure.

// errBadBlock rejects a block that misses its proof-of-work target or whose
// header does not commit to its transactions.
var errBadBlock = errors.New("p2p: block fails its proof of work or Merkle commitment")

// SubmitBlock injects a locally mined block: records it and announces it
// to all peers.
func (nd *Node) SubmitBlock(b *chain.Block) error {
	return nd.acceptBlock(b, nil)
}

// acceptBlock records and relays a block to every peer but from, the peer
// it came from — nil for local origin.
func (nd *Node) acceptBlock(b *chain.Block, from *Node) error {
	h := b.Header.Hash()
	if e := nd.entryFor(h); e != nil && e.seenGen == nd.net.invGen {
		return nil
	}
	// Structural checks only: contextual validation needs a chain view,
	// which no node keeps.
	if !b.Header.CheckPoW() || b.Header.MerkleRoot != chain.MerkleRoot(b.Txs) {
		return errBadBlock
	}
	hi := nd.net.hashSlot(h)
	e := nd.invEnsure(hi)
	e.seenGen = nd.net.invGen
	e.at = nd.now()
	nd.storeBlock(hi, b)
	e.reqGen = 0
	if tr := nd.net.dc.trace; tr != nil {
		tr.Record(obs.Event{At: nd.now(), Kind: obs.KindFirstSeen, P1: uint64(nd.id), P2: hashPrefix(h)})
	}
	if nd.net.OnBlockFirstSeen != nil {
		nd.net.OnBlockFirstSeen(nd, h, nd.now())
	}
	nd.announce(hi, nil, b, from)
	return nil
}

// HasBlock reports whether the node holds the block.
func (nd *Node) HasBlock(h chain.Hash) bool {
	if hi, ok := nd.net.findHash(h); ok {
		_, has := nd.blockFor(hi)
		return has
	}
	return false
}
