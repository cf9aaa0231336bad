package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/chain"
)

// The simulator charges EncodedSize and never reads a frame back. decode is
// the tests' reader of Encode's output: it checks the frame as a receiving
// peer would and parses the payload back into a message, so a round trip
// shows that every field reaches the bytes EncodedSize charges for. The
// reader refuses whatever Encode could not have produced, which keeps that
// check strict.

var (
	errBadMagic       = errors.New("bad magic")
	errBadChecksum    = errors.New("bad checksum")
	errUnknownCommand = errors.New("unknown command")
)

// decode parses the frame at the front of buf and returns its message and
// the bytes it took.
func decode(buf []byte) (Message, int, error) {
	if len(buf) < headerLen {
		return nil, 0, io.ErrUnexpectedEOF
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != Magic {
		return nil, 0, errBadMagic
	}
	n := binary.LittleEndian.Uint32(buf[5:9])
	if n > MaxPayload {
		return nil, 0, ErrOversize
	}
	if uint32(len(buf)-headerLen) < n {
		return nil, 0, io.ErrUnexpectedEOF
	}
	payload := buf[headerLen : headerLen+int(n)]
	if checksum(payload) != binary.LittleEndian.Uint32(buf[9:13]) {
		return nil, 0, errBadChecksum
	}
	msg, err := decodePayload(Command(buf[4]), payload)
	if err != nil {
		return nil, 0, err
	}
	return msg, headerLen + int(n), nil
}

// decodePayload parses the payload of a cmd message.
func decodePayload(cmd Command, payload []byte) (Message, error) {
	r := &reader{buf: payload}
	var msg Message
	switch cmd {
	case CmdVersion:
		m := &MsgVersion{Protocol: r.u32(), Self: r.netAddr(), Height: r.u32()}
		m.UserAgent = string(r.bytes(int(r.u8())))
		msg = m
	case CmdVerack:
		msg = &MsgVerack{}
	case CmdPing:
		m := &MsgPing{Nonce: r.u64()}
		m.Pad = append([]byte(nil), r.bytes(r.count(1))...)
		msg = m
	case CmdPong:
		msg = &MsgPong{Nonce: r.u64()}
	case CmdInv:
		msg = &MsgInv{Items: r.invList()}
	case CmdGetData:
		msg = &MsgGetData{Items: r.invList()}
	case CmdTx:
		msg = &MsgTx{Tx: r.tx()}
	case CmdBlock:
		msg = &MsgBlock{Block: r.block()}
	case CmdJoin:
		msg = &MsgJoin{Self: r.netAddr(), MeasuredRTTMicros: r.u64()}
	case CmdCluster:
		m := &MsgCluster{ClusterID: r.u64()}
		switch r.u8() {
		case 0:
		case 1:
			m.Accepted = true
		default:
			r.fail(errors.New("accepted flag neither 0 nor 1"))
		}
		m.Members = r.netAddrs()
		msg = m
	default:
		return nil, fmt.Errorf("%w %d", errUnknownCommand, cmd)
	}
	if err := r.finish(); err != nil {
		return nil, fmt.Errorf("%s: %w", cmd, err)
	}
	return msg, nil
}

// reader consumes a payload front to back. The first failure sticks in err,
// and every later read returns zero values.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n > len(r.buf) {
		r.fail(io.ErrUnexpectedEOF)
		return nil
	}
	v := r.buf[:n]
	r.buf = r.buf[n:]
	return v
}

func (r *reader) u8() uint8 {
	if b := r.bytes(1); r.err == nil {
		return b[0]
	}
	return 0
}

func (r *reader) u16() uint16 {
	if b := r.bytes(2); r.err == nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.bytes(4); r.err == nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.bytes(8); r.err == nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) hash() (h chain.Hash) {
	copy(h[:], r.bytes(len(h)))
	return h
}

// count reads a list's length and refuses one the bytes left could not
// hold at minSize bytes an element, before it sizes anything.
func (r *reader) count(minSize int) int {
	n := r.u32()
	if r.err == nil && int64(n) > int64(len(r.buf)/minSize) {
		r.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.buf)))
	}
	return int(n)
}

func (r *reader) finish() error {
	if r.err == nil && len(r.buf) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	return r.err
}

func (r *reader) netAddr() (a NetAddr) {
	a.NodeID = r.u64()
	copy(a.Host[:], r.bytes(len(a.Host)))
	a.Port = r.u16()
	return a
}

func (r *reader) netAddrs() []NetAddr {
	n := r.count(netAddrSize)
	if r.err != nil {
		return nil
	}
	addrs := make([]NetAddr, 0, n)
	for ; n > 0; n-- {
		addrs = append(addrs, r.netAddr())
	}
	return addrs
}

func (r *reader) invList() []InvVect {
	n := r.count(1 + 32)
	if r.err != nil {
		return nil
	}
	items := make([]InvVect, 0, n)
	for ; n > 0; n-- {
		it := InvVect{Type: InvType(r.u8()), Hash: r.hash()}
		if it.Type != InvTx && it.Type != InvBlock {
			r.fail(fmt.Errorf("unknown inv type %d", it.Type))
		}
		items = append(items, it)
	}
	return items
}

// tx reads what chain.Tx.Bytes writes.
func (r *reader) tx() *chain.Tx {
	tx := &chain.Tx{Version: r.u32()}
	for n := r.count(32 + 4 + 4 + 4); n > 0 && r.err == nil; n-- {
		in := chain.TxIn{PrevOut: chain.Outpoint{TxID: r.hash(), Index: r.u32()}}
		in.Sig = r.bytes(int(r.u32()))
		in.PubKey = r.bytes(int(r.u32()))
		tx.Inputs = append(tx.Inputs, in)
	}
	for n := r.count(8 + chain.AddressSize); n > 0 && r.err == nil; n-- {
		out := chain.TxOut{Value: chain.Amount(r.u64())}
		copy(out.To[:], r.bytes(chain.AddressSize))
		tx.Outputs = append(tx.Outputs, out)
	}
	tx.LockTime = r.u32()
	return tx
}

// block reads what chain.Block.Bytes writes: each transaction sits behind
// its length and must fill it exactly.
func (r *reader) block() *chain.Block {
	b := &chain.Block{}
	h := &b.Header
	h.Version = r.u32()
	h.PrevHash = r.hash()
	h.MerkleRoot = r.hash()
	h.TimeUnix = r.u64()
	h.TargetBits = r.u8()
	h.Nonce = r.u64()
	for n := r.count(4 + 4*4); n > 0 && r.err == nil; n-- {
		sub := &reader{buf: r.bytes(int(r.u32()))}
		b.Txs = append(b.Txs, sub.tx())
		r.fail(sub.finish())
	}
	return b
}
