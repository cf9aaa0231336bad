package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/chain"
)

// maxListLen bounds repeated elements in any message, defending decoders
// against hostile length prefixes.
const maxListLen = 50_000

var errTruncated = errors.New("truncated payload")

// --- primitive append/consume helpers ---

func appendU16(dst []byte, v uint16) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return append(dst, b[:]...)
}

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

type reader struct {
	buf []byte
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.buf) < 1 {
		r.err = errTruncated
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || len(r.buf) < 2 {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf)
	r.buf = r.buf[2:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.buf) < 4 {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.buf) < 8 {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || len(r.buf) < n {
		r.err = errTruncated
		return nil
	}
	v := r.buf[:n]
	r.buf = r.buf[n:]
	return v
}

func (r *reader) hash() chain.Hash {
	var h chain.Hash
	copy(h[:], r.bytes(32))
	return h
}

// listLen reads the count of a list whose elements take elemSize bytes
// each. The count is the sender's word: one the rest of the payload could
// not fill is refused here, before it sizes an allocation.
func (r *reader) listLen(elemSize int) int {
	n := r.u32()
	if r.err == nil && n > maxListLen {
		r.err = fmt.Errorf("list length %d exceeds limit", n)
	}
	if r.err == nil && int(n) > len(r.buf)/elemSize {
		r.err = errTruncated
	}
	return int(n)
}

func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	return nil
}

// netAddrSize is the encoded size of one NetAddr (NodeID + Host + Port).
const netAddrSize = 8 + 16 + 2

func appendNetAddr(dst []byte, a NetAddr) []byte {
	dst = appendU64(dst, a.NodeID)
	dst = append(dst, a.Host[:]...)
	return appendU16(dst, a.Port)
}

func (r *reader) netAddr() NetAddr {
	var a NetAddr
	a.NodeID = r.u64()
	copy(a.Host[:], r.bytes(16))
	a.Port = r.u16()
	return a
}

// --- VERSION / VERACK ---

// MsgVersion opens the handshake. It carries the sender's self-reported
// address and best-chain height, mirroring Bitcoin's version message.
type MsgVersion struct {
	Protocol uint32
	Self     NetAddr
	Height   uint32
	// UserAgent distinguishes implementations ("bcbpt-sim", "bcbptd").
	UserAgent string
}

// Command implements Message.
func (*MsgVersion) Command() Command { return CmdVersion }

func (m *MsgVersion) encodePayload(dst []byte) []byte {
	dst = appendU32(dst, m.Protocol)
	dst = appendNetAddr(dst, m.Self)
	dst = appendU32(dst, m.Height)
	if len(m.UserAgent) > 255 {
		m.UserAgent = m.UserAgent[:255]
	}
	dst = append(dst, byte(len(m.UserAgent)))
	return append(dst, m.UserAgent...)
}

func (m *MsgVersion) payloadSize() int {
	ua := len(m.UserAgent)
	if ua > 255 {
		ua = 255 // encodePayload truncates to one length byte
	}
	return 4 + netAddrSize + 4 + 1 + ua
}

func (m *MsgVersion) decodePayload(src []byte) error {
	r := &reader{buf: src}
	m.Protocol = r.u32()
	m.Self = r.netAddr()
	m.Height = r.u32()
	n := int(r.u8())
	m.UserAgent = string(r.bytes(n))
	return r.finish()
}

// MsgVerack acknowledges a version message, completing the handshake.
type MsgVerack struct{}

// Command implements Message.
func (*MsgVerack) Command() Command { return CmdVerack }

func (*MsgVerack) encodePayload(dst []byte) []byte { return dst }

func (*MsgVerack) payloadSize() int { return 0 }

func (*MsgVerack) decodePayload(src []byte) error {
	if len(src) != 0 {
		return fmt.Errorf("%d unexpected bytes", len(src))
	}
	return nil
}

// --- PING / PONG ---

// MsgPing probes a peer's liveness and, in BCBPT, measures the round-trip
// latency that drives clustering (paper §IV.A).
type MsgPing struct {
	Nonce uint64
	// Pad widens the message to the Mping size configured by the latency
	// model, so on-wire size matches eq. (2)'s Mping parameter.
	Pad []byte
}

// Command implements Message.
func (*MsgPing) Command() Command { return CmdPing }

func (m *MsgPing) encodePayload(dst []byte) []byte {
	dst = appendU64(dst, m.Nonce)
	dst = appendU32(dst, uint32(len(m.Pad)))
	return append(dst, m.Pad...)
}

func (m *MsgPing) payloadSize() int { return 8 + 4 + len(m.Pad) }

func (m *MsgPing) decodePayload(src []byte) error {
	r := &reader{buf: src}
	m.Nonce = r.u64()
	n := r.listLen(1)
	if r.err == nil {
		m.Pad = append([]byte(nil), r.bytes(n)...)
	}
	return r.finish()
}

// MsgPong answers a ping, echoing its nonce.
type MsgPong struct {
	Nonce uint64
}

// Command implements Message.
func (*MsgPong) Command() Command { return CmdPong }

func (m *MsgPong) encodePayload(dst []byte) []byte { return appendU64(dst, m.Nonce) }

func (*MsgPong) payloadSize() int { return 8 }

func (m *MsgPong) decodePayload(src []byte) error {
	r := &reader{buf: src}
	m.Nonce = r.u64()
	return r.finish()
}

// --- GETADDR / ADDR ---

// MsgGetAddr requests known peer addresses (the discovery mechanism the
// paper calls "the normal Bitcoin network nodes discovery mechanism").
type MsgGetAddr struct{}

// Command implements Message.
func (*MsgGetAddr) Command() Command { return CmdGetAddr }

func (*MsgGetAddr) encodePayload(dst []byte) []byte { return dst }

func (*MsgGetAddr) payloadSize() int { return 0 }

func (*MsgGetAddr) decodePayload(src []byte) error {
	if len(src) != 0 {
		return fmt.Errorf("%d unexpected bytes", len(src))
	}
	return nil
}

// MsgAddr gossips known peer addresses.
type MsgAddr struct {
	Addrs []NetAddr
}

// Command implements Message.
func (*MsgAddr) Command() Command { return CmdAddr }

func (m *MsgAddr) encodePayload(dst []byte) []byte {
	dst = appendU32(dst, uint32(len(m.Addrs)))
	for _, a := range m.Addrs {
		dst = appendNetAddr(dst, a)
	}
	return dst
}

func (m *MsgAddr) payloadSize() int { return 4 + netAddrSize*len(m.Addrs) }

func (m *MsgAddr) decodePayload(src []byte) error {
	r := &reader{buf: src}
	n := r.listLen(netAddrSize)
	if r.err == nil {
		m.Addrs = make([]NetAddr, 0, n)
		for i := 0; i < n; i++ {
			m.Addrs = append(m.Addrs, r.netAddr())
		}
	}
	return r.finish()
}

// --- INV / GETDATA ---

// MsgInv announces inventory availability (Fig. 1, step 1): hashes only,
// so a peer that already has the data never downloads it twice.
type MsgInv struct {
	Items []InvVect
}

// Command implements Message.
func (*MsgInv) Command() Command { return CmdInv }

func (m *MsgInv) encodePayload(dst []byte) []byte { return encodeInvList(dst, m.Items) }

func (m *MsgInv) payloadSize() int { return invListSize(m.Items) }

func (m *MsgInv) decodePayload(src []byte) error {
	items, err := decodeInvList(src)
	m.Items = items
	return err
}

// MsgGetData requests full data for previously announced inventory
// (Fig. 1, step 2).
type MsgGetData struct {
	Items []InvVect
}

// Command implements Message.
func (*MsgGetData) Command() Command { return CmdGetData }

func (m *MsgGetData) encodePayload(dst []byte) []byte { return encodeInvList(dst, m.Items) }

func (m *MsgGetData) payloadSize() int { return invListSize(m.Items) }

func (m *MsgGetData) decodePayload(src []byte) error {
	items, err := decodeInvList(src)
	m.Items = items
	return err
}

func encodeInvList(dst []byte, items []InvVect) []byte {
	dst = appendU32(dst, uint32(len(items)))
	for _, it := range items {
		dst = append(dst, byte(it.Type))
		dst = append(dst, it.Hash[:]...)
	}
	return dst
}

// invListSize is the encoded size of an INV/GETDATA item list.
func invListSize(items []InvVect) int { return 4 + (1+32)*len(items) }

func decodeInvList(src []byte) ([]InvVect, error) {
	r := &reader{buf: src}
	n := r.listLen(1 + 32)
	var items []InvVect
	if r.err == nil {
		items = make([]InvVect, 0, n)
		for i := 0; i < n; i++ {
			t := InvType(r.u8())
			h := r.hash()
			if r.err == nil && t != InvTx && t != InvBlock {
				return nil, fmt.Errorf("unknown inv type %d", t)
			}
			items = append(items, InvVect{Type: t, Hash: h})
		}
	}
	return items, r.finish()
}

// --- TX / BLOCK ---

// MsgTx delivers a full transaction (Fig. 1, step 3).
type MsgTx struct {
	Tx *chain.Tx
}

// Command implements Message.
func (*MsgTx) Command() Command { return CmdTx }

func (m *MsgTx) encodePayload(dst []byte) []byte { return append(dst, m.Tx.Bytes()...) }

func (m *MsgTx) payloadSize() int { return m.Tx.Size() }

func (m *MsgTx) decodePayload(src []byte) error {
	tx, err := chain.DecodeTx(src)
	m.Tx = tx
	return err
}

// MsgBlock delivers a full block.
type MsgBlock struct {
	Block *chain.Block
}

// Command implements Message.
func (*MsgBlock) Command() Command { return CmdBlock }

func (m *MsgBlock) encodePayload(dst []byte) []byte { return append(dst, m.Block.Bytes()...) }

func (m *MsgBlock) payloadSize() int { return m.Block.Size() }

func (m *MsgBlock) decodePayload(src []byte) error {
	b, err := chain.DecodeBlock(src)
	m.Block = b
	return err
}

// --- JOIN / CLUSTER (BCBPT extensions) ---

// MsgJoin asks the receiver — the closest node the sender has measured —
// to admit the sender to its cluster (paper §IV.B: "the node N sends a
// JOIN request destined for the closest node K").
type MsgJoin struct {
	Self NetAddr
	// MeasuredRTTMicros is the sender's smoothed RTT estimate to the
	// receiver, letting the receiver sanity-check the claim of proximity.
	MeasuredRTTMicros uint64
}

// Command implements Message.
func (*MsgJoin) Command() Command { return CmdJoin }

func (m *MsgJoin) encodePayload(dst []byte) []byte {
	dst = appendNetAddr(dst, m.Self)
	return appendU64(dst, m.MeasuredRTTMicros)
}

func (*MsgJoin) payloadSize() int { return netAddrSize + 8 }

func (m *MsgJoin) decodePayload(src []byte) error {
	r := &reader{buf: src}
	m.Self = r.netAddr()
	m.MeasuredRTTMicros = r.u64()
	return r.finish()
}

// MsgCluster answers a JOIN with the membership list: "it receives a list
// of IPs of nodes that belong to the same cluster of the node K" (§IV.B).
type MsgCluster struct {
	ClusterID uint64
	Members   []NetAddr
	// Accepted is false when the receiver refused the join (e.g. the
	// measured RTT exceeds its threshold), in which case Members may
	// still carry hints of better-placed clusters.
	Accepted bool
}

// Command implements Message.
func (*MsgCluster) Command() Command { return CmdCluster }

func (m *MsgCluster) encodePayload(dst []byte) []byte {
	dst = appendU64(dst, m.ClusterID)
	if m.Accepted {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendU32(dst, uint32(len(m.Members)))
	for _, a := range m.Members {
		dst = appendNetAddr(dst, a)
	}
	return dst
}

func (m *MsgCluster) payloadSize() int { return 8 + 1 + 4 + netAddrSize*len(m.Members) }

func (m *MsgCluster) decodePayload(src []byte) error {
	r := &reader{buf: src}
	m.ClusterID = r.u64()
	m.Accepted = r.u8() == 1
	n := r.listLen(netAddrSize)
	if r.err == nil {
		m.Members = make([]NetAddr, 0, n)
		for i := 0; i < n; i++ {
			m.Members = append(m.Members, r.netAddr())
		}
	}
	return r.finish()
}
