package chain

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The simulator passes transactions and blocks around as values and never
// reads one back from bytes. parseTx and parseBlock are the tests' reader
// of Tx.Bytes and Block.Bytes: a serialization that parses back to the
// same ID carries every field the ID commits to.

// byteReader consumes a serialization front to back. The first short read
// sticks in err, and every later read returns zero values.
type byteReader struct {
	buf []byte
	err error
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil || n > len(r.buf) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	v := r.buf[:n]
	r.buf = r.buf[n:]
	return v
}

func (r *byteReader) u8() uint8 {
	if b := r.take(1); r.err == nil {
		return b[0]
	}
	return 0
}

func (r *byteReader) u32() uint32 {
	if b := r.take(4); r.err == nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *byteReader) u64() uint64 {
	if b := r.take(8); r.err == nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// lenBytes reads a byte field behind its four-byte length.
func (r *byteReader) lenBytes() []byte { return r.take(int(r.u32())) }

// count reads a list's length and refuses one the bytes left could not
// hold at minSize bytes an element.
func (r *byteReader) count(minSize int) int {
	n := r.u32()
	if r.err == nil && int64(n) > int64(len(r.buf)/minSize) {
		r.err = fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.buf))
	}
	return int(n)
}

func (r *byteReader) finish() error {
	if r.err == nil && len(r.buf) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	return r.err
}

// parseTx reads back a serialization produced by Tx.Bytes.
func parseTx(data []byte) (*Tx, error) {
	r := &byteReader{buf: data}
	tx := &Tx{Version: r.u32()}
	for n := r.count(32 + 4 + 4 + 4); n > 0 && r.err == nil; n-- {
		var in TxIn
		copy(in.PrevOut.TxID[:], r.take(32))
		in.PrevOut.Index = r.u32()
		in.Sig = r.lenBytes()
		in.PubKey = r.lenBytes()
		tx.Inputs = append(tx.Inputs, in)
	}
	for n := r.count(8 + AddressSize); n > 0 && r.err == nil; n-- {
		var out TxOut
		out.Value = Amount(r.u64())
		copy(out.To[:], r.take(AddressSize))
		tx.Outputs = append(tx.Outputs, out)
	}
	tx.LockTime = r.u32()
	return tx, r.finish()
}

// parseBlock reads back a serialization produced by Block.Bytes.
func parseBlock(data []byte) (*Block, error) {
	r := &byteReader{buf: data}
	var b Block
	h := &b.Header
	h.Version = r.u32()
	copy(h.PrevHash[:], r.take(32))
	copy(h.MerkleRoot[:], r.take(32))
	h.TimeUnix = r.u64()
	h.TargetBits = r.u8()
	h.Nonce = r.u64()
	for n := r.count(4 + 4*4); n > 0 && r.err == nil; n-- {
		tx, err := parseTx(r.lenBytes())
		if err != nil {
			return nil, err
		}
		b.Txs = append(b.Txs, tx)
	}
	return &b, r.finish()
}
