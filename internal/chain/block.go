package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// BlockHeader commits to a batch of transactions and links to the
// previous block, forming the chain.
type BlockHeader struct {
	Version    uint32
	PrevHash   Hash
	MerkleRoot Hash
	TimeUnix   uint64 // virtual or wall time, seconds
	TargetBits uint8  // proof-of-work difficulty: required leading zero bits
	Nonce      uint64
}

// Bytes returns the canonical header serialization.
func (h *BlockHeader) Bytes() []byte {
	buf := make([]byte, 0, 4+32+32+8+1+8)
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], h.Version)
	buf = append(buf, scratch[:4]...)
	buf = append(buf, h.PrevHash[:]...)
	buf = append(buf, h.MerkleRoot[:]...)
	binary.LittleEndian.PutUint64(scratch[:8], h.TimeUnix)
	buf = append(buf, scratch[:8]...)
	buf = append(buf, h.TargetBits)
	binary.LittleEndian.PutUint64(scratch[:8], h.Nonce)
	buf = append(buf, scratch[:8]...)
	return buf
}

// Hash returns the block ID.
func (h *BlockHeader) Hash() Hash { return DoubleSHA256(h.Bytes()) }

// leadingZeroBits counts leading zero bits of a hash.
func leadingZeroBits(h Hash) int {
	n := 0
	for _, b := range h {
		if b == 0 {
			n += 8
			continue
		}
		n += bits.LeadingZeros8(b)
		break
	}
	return n
}

// CheckPoW reports whether the header hash meets its difficulty target.
func (h *BlockHeader) CheckPoW() bool {
	return leadingZeroBits(h.Hash()) >= int(h.TargetBits)
}

// Block is a header plus the transactions it commits to. Txs[0] must be
// the coinbase.
type Block struct {
	Header BlockHeader
	Txs    []*Tx
}

// MerkleRoot computes the Merkle root of a transaction list, duplicating
// the last node at odd levels as Bitcoin does. An empty list hashes to the
// zero hash.
func MerkleRoot(txs []*Tx) Hash {
	if len(txs) == 0 {
		return Hash{}
	}
	level := make([]Hash, len(txs))
	for i, tx := range txs {
		level[i] = tx.ID()
	}
	for len(level) > 1 {
		if len(level)%2 == 1 {
			level = append(level, level[len(level)-1])
		}
		next := make([]Hash, len(level)/2)
		var cat [64]byte
		for i := range next {
			copy(cat[:32], level[2*i][:])
			copy(cat[32:], level[2*i+1][:])
			next[i] = DoubleSHA256(cat[:])
		}
		level = next
	}
	return level[0]
}

// Mine searches nonces until the header meets target. maxAttempts bounds
// the search (0 means unbounded); it returns false if exhausted. Only used
// with small targets in simulations and tests — this is a substrate, not a
// real miner.
func (b *Block) Mine(maxAttempts uint64) bool {
	for attempt := uint64(0); maxAttempts == 0 || attempt < maxAttempts; attempt++ {
		b.Header.Nonce = attempt
		if b.Header.CheckPoW() {
			return true
		}
	}
	return false
}

// Chain is an append-only best chain with full validation: header
// linkage, proof of work, Merkle commitment, coinbase rules, and
// transaction validity against the UTXO set. Fork choice is out of scope
// (the paper evaluates transaction propagation, not consensus) — the
// chain accepts only extensions of its tip.
type Chain struct {
	blocks  []*Block
	byHash  map[Hash]int // block hash -> height
	utxo    *UTXOSet
	subsidy Amount
	target  uint8
}

// ChainConfig parameterises a new chain.
type ChainConfig struct {
	// Subsidy is the coinbase reward per block.
	Subsidy Amount
	// TargetBits is the PoW difficulty for every block. Keep <= 20 in
	// tests: expected work is 2^TargetBits hashes.
	TargetBits uint8
	// GenesisTo receives the genesis coinbase.
	GenesisTo Address
	// GenesisTime stamps the genesis header.
	GenesisTime uint64
}

// NewChain creates a chain containing a mined genesis block.
func NewChain(cfg ChainConfig) (*Chain, error) {
	if cfg.Subsidy <= 0 {
		return nil, errors.New("chain: subsidy must be positive")
	}
	c := &Chain{
		byHash:  make(map[Hash]int),
		utxo:    NewUTXOSet(),
		subsidy: cfg.Subsidy,
		target:  cfg.TargetBits,
	}
	genesisTx := Coinbase(0, cfg.Subsidy, cfg.GenesisTo)
	genesis := &Block{
		Header: BlockHeader{
			Version:    1,
			MerkleRoot: MerkleRoot([]*Tx{genesisTx}),
			TimeUnix:   cfg.GenesisTime,
			TargetBits: cfg.TargetBits,
		},
		Txs: []*Tx{genesisTx},
	}
	if !genesis.Mine(0) {
		return nil, errors.New("chain: failed to mine genesis")
	}
	if err := c.utxo.AddCoinbase(genesisTx); err != nil {
		return nil, err
	}
	c.blocks = append(c.blocks, genesis)
	c.byHash[genesis.Header.Hash()] = 0
	return c, nil
}

// Height returns the tip height (genesis is 0).
func (c *Chain) Height() int { return len(c.blocks) - 1 }

// Tip returns the best block.
func (c *Chain) Tip() *Block { return c.blocks[len(c.blocks)-1] }

// BlockAt returns the block at the given height.
func (c *Chain) BlockAt(height int) (*Block, bool) {
	if height < 0 || height >= len(c.blocks) {
		return nil, false
	}
	return c.blocks[height], true
}

// HasBlock reports whether the chain contains the block hash.
func (c *Chain) HasBlock(h Hash) bool {
	_, ok := c.byHash[h]
	return ok
}

// UTXO exposes the materialized ledger state.
func (c *Chain) UTXO() *UTXOSet { return c.utxo }

// Subsidy returns the per-block coinbase reward.
func (c *Chain) Subsidy() Amount { return c.subsidy }

// TargetBits returns the chain's PoW difficulty.
func (c *Chain) TargetBits() uint8 { return c.target }

// NewBlockTemplate assembles an unmined block extending the tip, paying
// the coinbase (subsidy + fees) to rewardTo.
func (c *Chain) NewBlockTemplate(txs []*Tx, rewardTo Address, timeUnix uint64) (*Block, error) {
	var fees Amount
	trial := c.utxo.Clone()
	for i, tx := range txs {
		fee, err := trial.Fee(tx)
		if err != nil {
			return nil, fmt.Errorf("chain: template tx %d: %w", i, err)
		}
		if err := trial.ApplyTx(tx); err != nil {
			return nil, fmt.Errorf("chain: template tx %d: %w", i, err)
		}
		fees += fee
	}
	cb := Coinbase(uint64(c.Height()+1), c.subsidy+fees, rewardTo)
	all := append([]*Tx{cb}, txs...)
	return &Block{
		Header: BlockHeader{
			Version:    1,
			PrevHash:   c.Tip().Header.Hash(),
			MerkleRoot: MerkleRoot(all),
			TimeUnix:   timeUnix,
			TargetBits: c.target,
		},
		Txs: all,
	}, nil
}

// ValidateBlock fully validates b as an extension of the current tip
// without mutating state.
func (c *Chain) ValidateBlock(b *Block) error {
	if b.Header.PrevHash != c.Tip().Header.Hash() {
		return fmt.Errorf("chain: block extends %s, tip is %s", b.Header.PrevHash, c.Tip().Header.Hash())
	}
	if b.Header.TargetBits != c.target {
		return fmt.Errorf("chain: target %d, want %d", b.Header.TargetBits, c.target)
	}
	if !b.Header.CheckPoW() {
		return errors.New("chain: insufficient proof of work")
	}
	if len(b.Txs) == 0 {
		return errors.New("chain: empty block")
	}
	if b.Header.MerkleRoot != MerkleRoot(b.Txs) {
		return errors.New("chain: merkle root mismatch")
	}
	cb := b.Txs[0]
	if !cb.IsCoinbase() {
		return errors.New("chain: first tx is not coinbase")
	}
	trial := c.utxo.Clone()
	var fees Amount
	for i, tx := range b.Txs[1:] {
		if tx.IsCoinbase() {
			return fmt.Errorf("chain: tx %d is a stray coinbase", i+1)
		}
		fee, err := trial.Fee(tx)
		if err != nil {
			return fmt.Errorf("chain: block tx %d: %w", i+1, err)
		}
		if err := trial.ApplyTx(tx); err != nil {
			return fmt.Errorf("chain: block tx %d: %w", i+1, err)
		}
		fees += fee
	}
	var cbOut Amount
	for _, out := range cb.Outputs {
		cbOut += out.Value
	}
	if cbOut > c.subsidy+fees {
		return fmt.Errorf("chain: coinbase pays %d, allowed %d", cbOut, c.subsidy+fees)
	}
	return nil
}

// AddBlock validates and appends b, updating the UTXO set.
func (c *Chain) AddBlock(b *Block) error {
	if err := c.ValidateBlock(b); err != nil {
		return err
	}
	if err := c.utxo.AddCoinbase(b.Txs[0]); err != nil {
		return err
	}
	for _, tx := range b.Txs[1:] {
		if err := c.utxo.ApplyTx(tx); err != nil {
			// ValidateBlock proved this cannot happen; a failure here means
			// internal state corruption, which must not be papered over.
			panic(fmt.Sprintf("chain: validated block failed to apply: %v", err))
		}
	}
	c.blocks = append(c.blocks, b)
	c.byHash[b.Header.Hash()] = len(c.blocks) - 1
	return nil
}

// Bytes serializes a block: header followed by length-prefixed txs.
func (b *Block) Bytes() []byte {
	var buf bytes.Buffer
	buf.Write(b.Header.Bytes())
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], uint32(len(b.Txs)))
	buf.Write(scratch[:])
	for _, tx := range b.Txs {
		txb := tx.Bytes()
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(txb)))
		buf.Write(scratch[:])
		buf.Write(txb)
	}
	return buf.Bytes()
}

// Size returns the serialized size in bytes without serializing — the
// block-relay counterpart of Tx.Size, used by the simulator to charge
// BLOCK messages against link bandwidth per delivery.
func (b *Block) Size() int {
	n := (4 + 32 + 32 + 8 + 1 + 8) + 4 // header + tx count
	for _, tx := range b.Txs {
		n += 4 + tx.Size()
	}
	return n
}
