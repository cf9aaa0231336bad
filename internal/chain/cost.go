package chain

import "time"

// VerifyCostModel converts a transaction into the virtual time a peer
// spends validating it before relaying (the "verify then announce" step of
// Fig. 1). Decker & Wattenhofer (the paper's ref [9]) measured that
// verification contributes a per-hop delay on the same order as the
// round-trip time.
//
// The model is:
//
//	cost = Base + PerInput·inputs + PerKB·ceil(size/1024)
//
// Base covers the fixed bookkeeping, PerInput the ECDSA verifies (the
// dominant term), PerKB deserialization. The paper adds that the cost
// grows with the size of the ledger; that growth is not modelled, since no
// node keeps a ledger (see the package comment).
type VerifyCostModel struct {
	Base     time.Duration
	PerInput time.Duration
	PerKB    time.Duration
}

// DefaultVerifyCost returns the calibration used by the experiments:
// ~2ms fixed + ~0.1ms/input, yielding the "a few ms" per-hop verification
// delay reported for 2015-2016 era nodes.
func DefaultVerifyCost() VerifyCostModel {
	return VerifyCostModel{
		Base:     2 * time.Millisecond,
		PerInput: 100 * time.Microsecond,
		PerKB:    50 * time.Microsecond,
	}
}

// TxCost returns the verification delay for tx.
func (m VerifyCostModel) TxCost(tx *Tx) time.Duration {
	cost := m.Base
	cost += time.Duration(len(tx.Inputs)) * m.PerInput
	kb := (tx.Size() + 1023) / 1024
	cost += time.Duration(kb) * m.PerKB
	return cost
}

// BlockCost returns the verification delay for a whole block.
func (m VerifyCostModel) BlockCost(b *Block) time.Duration {
	var cost time.Duration
	for _, tx := range b.Txs {
		cost += m.TxCost(tx)
	}
	return cost
}
