package wire

import (
	"encoding/binary"

	"repro/internal/chain"
)

// --- primitive append helpers ---

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

// netAddrSize is the encoded size of one NetAddr (NodeID + Host + Port).
const netAddrSize = 8 + 16 + 2

func appendNetAddr(dst []byte, a NetAddr) []byte {
	dst = appendU64(dst, a.NodeID)
	dst = append(dst, a.Host[:]...)
	return appendU16(dst, a.Port)
}

// --- VERSION / VERACK ---

// MsgVersion opens the handshake. It carries the sender's self-reported
// address and best-chain height, mirroring Bitcoin's version message.
type MsgVersion struct {
	Protocol uint32
	Self     NetAddr
	Height   uint32
	// UserAgent names the sending implementation ("bcbpt-sim"). Encoding
	// carries at most 255 bytes of it behind a one-byte length.
	UserAgent string
}

// Command implements Message.
func (*MsgVersion) Command() Command { return CmdVersion }

func (m *MsgVersion) encodePayload(dst []byte) []byte {
	dst = appendU32(dst, m.Protocol)
	dst = appendNetAddr(dst, m.Self)
	dst = appendU32(dst, m.Height)
	ua := m.UserAgent
	if len(ua) > 255 {
		ua = ua[:255]
	}
	dst = append(dst, byte(len(ua)))
	return append(dst, ua...)
}

func (m *MsgVersion) payloadSize() int {
	ua := len(m.UserAgent)
	if ua > 255 {
		ua = 255 // encodePayload truncates to one length byte
	}
	return 4 + netAddrSize + 4 + 1 + ua
}

// MsgVerack acknowledges a version message, completing the handshake.
type MsgVerack struct{}

// Command implements Message.
func (*MsgVerack) Command() Command { return CmdVerack }

func (*MsgVerack) encodePayload(dst []byte) []byte { return dst }

func (*MsgVerack) payloadSize() int { return 0 }

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

// MsgPong answers a ping, echoing its nonce.
type MsgPong struct {
	Nonce uint64
}

// Command implements Message.
func (*MsgPong) Command() Command { return CmdPong }

func (m *MsgPong) encodePayload(dst []byte) []byte { return appendU64(dst, m.Nonce) }

func (*MsgPong) payloadSize() int { return 8 }

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

// MsgGetData requests full data for previously announced inventory
// (Fig. 1, step 2).
type MsgGetData struct {
	Items []InvVect
}

// Command implements Message.
func (*MsgGetData) Command() Command { return CmdGetData }

func (m *MsgGetData) encodePayload(dst []byte) []byte { return encodeInvList(dst, m.Items) }

func (m *MsgGetData) payloadSize() int { return invListSize(m.Items) }

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

// --- TX / BLOCK ---

// MsgTx delivers a full transaction (Fig. 1, step 3).
type MsgTx struct {
	Tx *chain.Tx
}

// Command implements Message.
func (*MsgTx) Command() Command { return CmdTx }

func (m *MsgTx) encodePayload(dst []byte) []byte { return append(dst, m.Tx.Bytes()...) }

func (m *MsgTx) payloadSize() int { return m.Tx.Size() }

// MsgBlock delivers a full block.
type MsgBlock struct {
	Block *chain.Block
}

// Command implements Message.
func (*MsgBlock) Command() Command { return CmdBlock }

func (m *MsgBlock) encodePayload(dst []byte) []byte { return append(dst, m.Block.Bytes()...) }

func (m *MsgBlock) payloadSize() int { return m.Block.Size() }

// --- JOIN / CLUSTER (BCBPT extensions) ---

// MsgJoin asks the receiver — the closest node the sender has measured —
// to admit the sender to its cluster (paper §IV.B: "the node N sends a
// JOIN request destined for the closest node K"). Once the receiver's
// handler returns, the message is its sender's to reuse: a receiver copies
// what it needs and keeps no reference.
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

// MsgCluster answers a JOIN with the membership list: "it receives a list
// of IPs of nodes that belong to the same cluster of the node K" (§IV.B).
// Like a JOIN, it is its sender's to reuse, Members included, once the
// receiver's handler returns: a receiver copies what it needs and keeps no
// reference.
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
