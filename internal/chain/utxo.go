package chain

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
)

// Validation errors surfaced by the UTXO set and mempool. They are
// sentinel values so protocol code can switch on the failure class (e.g.
// a double spend is a signal, a bad signature is just garbage).
var (
	ErrMissingInput  = errors.New("chain: input not found in UTXO set")
	ErrDoubleSpend   = errors.New("chain: input already spent")
	ErrWrongOwner    = errors.New("chain: pubkey does not own spent output")
	ErrValueOverflow = errors.New("chain: outputs exceed inputs")
)

// UTXOSet is the set of unspent transaction outputs — the materialized
// state of the ledger. It is not safe for concurrent use; the simulation
// is single-threaded.
type UTXOSet struct {
	entries map[Outpoint]TxOut
}

// NewUTXOSet returns an empty set.
func NewUTXOSet() *UTXOSet {
	return &UTXOSet{entries: make(map[Outpoint]TxOut)}
}

// Len returns the number of unspent outputs.
func (u *UTXOSet) Len() int { return len(u.entries) }

// Lookup returns the output for op, if unspent.
func (u *UTXOSet) Lookup(op Outpoint) (TxOut, bool) {
	out, ok := u.entries[op]
	return out, ok
}

// add registers the outputs of tx as unspent.
func (u *UTXOSet) add(tx *Tx) {
	id := tx.ID()
	for i, out := range tx.Outputs {
		u.entries[Outpoint{TxID: id, Index: uint32(i)}] = out
	}
}

// AddCoinbase credits a coinbase transaction's outputs without input
// validation. It is the only way value enters the ledger.
func (u *UTXOSet) AddCoinbase(tx *Tx) error {
	if !tx.IsCoinbase() {
		return errors.New("chain: AddCoinbase on non-coinbase tx")
	}
	if err := tx.CheckWellFormed(); err != nil {
		return err
	}
	u.add(tx)
	return nil
}

// ValidateTx fully validates tx against the set: structure, input
// existence, ownership, signatures, and value balance. It does not mutate
// the set.
func (u *UTXOSet) ValidateTx(tx *Tx) error {
	if err := tx.CheckWellFormed(); err != nil {
		return err
	}
	if tx.IsCoinbase() {
		return errors.New("chain: free-standing coinbase")
	}
	digest := tx.SigHash()
	var inSum, outSum Amount
	for i := range tx.Inputs {
		in := &tx.Inputs[i]
		prev, ok := u.entries[in.PrevOut]
		if !ok {
			return fmt.Errorf("%w: %s", ErrMissingInput, in.PrevOut)
		}
		if PubKeyAddress(in.PubKey) != prev.To {
			return fmt.Errorf("%w: input %d", ErrWrongOwner, i)
		}
		if !VerifySignature(in.PubKey, [32]byte(digest), in.Sig) {
			return fmt.Errorf("%w: input %d", ErrBadSignature, i)
		}
		inSum += prev.Value
	}
	for _, out := range tx.Outputs {
		outSum += out.Value
	}
	if outSum > inSum {
		return fmt.Errorf("%w: in=%d out=%d", ErrValueOverflow, inSum, outSum)
	}
	return nil
}

// ApplyTx validates tx and then spends its inputs and credits its
// outputs. On error the set is unchanged.
func (u *UTXOSet) ApplyTx(tx *Tx) error {
	if err := u.ValidateTx(tx); err != nil {
		return err
	}
	for i := range tx.Inputs {
		delete(u.entries, tx.Inputs[i].PrevOut)
	}
	u.add(tx)
	return nil
}

// Fee returns the fee tx would pay against this set (inputs minus
// outputs), or an error if an input is missing.
func (u *UTXOSet) Fee(tx *Tx) (Amount, error) {
	if tx.IsCoinbase() {
		return 0, nil
	}
	var inSum, outSum Amount
	for i := range tx.Inputs {
		prev, ok := u.entries[tx.Inputs[i].PrevOut]
		if !ok {
			return 0, fmt.Errorf("%w: %s", ErrMissingInput, tx.Inputs[i].PrevOut)
		}
		inSum += prev.Value
	}
	for _, out := range tx.Outputs {
		outSum += out.Value
	}
	return inSum - outSum, nil
}

// Clone returns a deep copy, used to trial-apply blocks.
func (u *UTXOSet) Clone() *UTXOSet {
	c := &UTXOSet{entries: make(map[Outpoint]TxOut, len(u.entries))}
	for k, v := range u.entries {
		c.entries[k] = v
	}
	return c
}

// BalanceOf sums the unspent value owned by addr. O(n) — a convenience
// for tests and examples, not a wallet index.
func (u *UTXOSet) BalanceOf(addr Address) Amount {
	var sum Amount
	for _, out := range u.entries {
		if out.To == addr {
			sum += out.Value
		}
	}
	return sum
}

// OutpointsOf lists unspent outpoints owned by addr in ascending
// (TxID, Index) order, so callers that spend "the first output" behave
// identically run to run.
func (u *UTXOSet) OutpointsOf(addr Address) []Outpoint {
	var ops []Outpoint
	for op, out := range u.entries {
		if out.To == addr {
			ops = append(ops, op)
		}
	}
	sort.Slice(ops, func(i, j int) bool {
		if c := bytes.Compare(ops[i].TxID[:], ops[j].TxID[:]); c != 0 {
			return c < 0
		}
		return ops[i].Index < ops[j].Index
	})
	return ops
}
