package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Amount is a quantity of currency in the smallest unit (satoshi).
type Amount int64

// MaxAmount caps any single output; 21M coins at 1e8 satoshi.
const MaxAmount Amount = 21_000_000 * 1e8

// Outpoint references one output of a previous transaction.
type Outpoint struct {
	TxID  Hash
	Index uint32
}

// String implements fmt.Stringer.
func (o Outpoint) String() string { return fmt.Sprintf("%s:%d", o.TxID, o.Index) }

// TxIn spends a previous output. No node verifies Sig; it and PubKey are
// carried for their size, which the relay charges against link bandwidth
// and verification cost.
type TxIn struct {
	PrevOut Outpoint
	Sig     []byte // compact 64-byte signature
	PubKey  []byte // uncompressed public key whose address owns PrevOut
}

// TxOut assigns value to an address.
type TxOut struct {
	Value Amount
	To    Address
}

// Tx is a transaction: a reassignment of previously unspent outputs. A
// transaction with no inputs is a coinbase (mining reward); the
// measurement floods send coinbases, which spend nothing and so conflict
// with nothing.
type Tx struct {
	Version  uint32
	Inputs   []TxIn
	Outputs  []TxOut
	LockTime uint32

	// id caches the transaction hash: every node on a flood path hashes
	// the same shared *Tx at least twice (receive and accept), and the
	// serialize-and-digest would otherwise run once per hop. Fields must
	// not be mutated after the first ID() call.
	id      Hash
	idValid bool
}

// Coinbase builds a mining-reward transaction paying value to addr. The
// height is mixed into the serialization so coinbases at different heights
// have distinct IDs.
func Coinbase(height uint64, value Amount, to Address) *Tx {
	return &Tx{
		Version:  1,
		Inputs:   nil,
		Outputs:  []TxOut{{Value: value, To: to}},
		LockTime: uint32(height),
	}
}

// serialize writes the canonical binary form.
func (tx *Tx) serialize(w *bytes.Buffer) {
	var scratch [8]byte
	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		w.Write(scratch[:4])
	}
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		w.Write(scratch[:8])
	}
	putBytes := func(b []byte) {
		putU32(uint32(len(b)))
		w.Write(b)
	}

	putU32(tx.Version)
	putU32(uint32(len(tx.Inputs)))
	for i := range tx.Inputs {
		in := &tx.Inputs[i]
		w.Write(in.PrevOut.TxID[:])
		putU32(in.PrevOut.Index)
		putBytes(in.Sig)
		putBytes(in.PubKey)
	}
	putU32(uint32(len(tx.Outputs)))
	for i := range tx.Outputs {
		out := &tx.Outputs[i]
		putU64(uint64(out.Value))
		w.Write(out.To[:])
	}
	putU32(tx.LockTime)
}

// Bytes returns the full canonical serialization.
func (tx *Tx) Bytes() []byte {
	var buf bytes.Buffer
	tx.serialize(&buf)
	return buf.Bytes()
}

// Size returns the serialized size in bytes, computed arithmetically
// from the fixed layout — no serialization, no allocation. The simulator
// sizes every in-flight TX message against link bandwidth through this
// (wire.EncodedSize), so it runs once per delivery on the flood hot
// path; TestSizeMatchesBytes pins it to len(Bytes()).
func (tx *Tx) Size() int {
	n := 4 + 4 + 4 + 4 // version + input count + output count + locktime
	for i := range tx.Inputs {
		in := &tx.Inputs[i]
		n += 32 + 4 + 4 + len(in.Sig) + 4 + len(in.PubKey)
	}
	n += len(tx.Outputs) * (8 + AddressSize)
	return n
}

// ID returns the transaction hash over the full serialization, computed
// once and cached. The transaction must not be mutated after the first
// call.
func (tx *Tx) ID() Hash {
	if !tx.idValid {
		tx.id = DoubleSHA256(tx.Bytes())
		tx.idValid = true
	}
	return tx.id
}

// CheckWellFormed performs context-free validation: structure and value
// ranges only (no ledger lookups, no signature checks).
func (tx *Tx) CheckWellFormed() error {
	if len(tx.Outputs) == 0 {
		return errors.New("chain: tx has no outputs")
	}
	var total Amount
	for i, out := range tx.Outputs {
		if out.Value <= 0 {
			return fmt.Errorf("chain: output %d has non-positive value %d", i, out.Value)
		}
		if out.Value > MaxAmount {
			return fmt.Errorf("chain: output %d value %d exceeds max", i, out.Value)
		}
		total += out.Value
		if total > MaxAmount {
			return errors.New("chain: total output value exceeds max")
		}
	}
	seen := make(map[Outpoint]struct{}, len(tx.Inputs))
	for i := range tx.Inputs {
		op := tx.Inputs[i].PrevOut
		if _, dup := seen[op]; dup {
			return fmt.Errorf("chain: duplicate input %s (self double-spend)", op)
		}
		seen[op] = struct{}{}
	}
	return nil
}
