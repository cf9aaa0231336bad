// Package wire implements a Bitcoin-style binary wire protocol: framed
// messages with a magic prefix, a one-byte command, an explicit length
// and a double-SHA256 checksum, followed by a typed payload.
//
// The simulator charges a message's framed size against link bandwidth:
// EncodedSize for the messages it sends as values — p2p's Node.Send carries
// JOIN and CLUSTER only — and compact sizes held equal to EncodedSize by
// p2p's tests for the ones it carries as record fields. Encode is the
// reference serialization those sizes are tested against.
//
// Message set: the standard Bitcoin handshake and relay messages
// (VERSION/VERACK/PING/PONG/INV/GETDATA/TX/BLOCK) plus the
// BCBPT extensions from §IV.B of the paper: JOIN (a node asks the closest
// discovered node for membership) and CLUSTER (the accepting node returns
// the IPs of its cluster members).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/chain"
)

// Magic identifies the network. Distinct from Bitcoin mainnet's magic so a
// stray packet cannot be confused for the real network.
const Magic uint32 = 0xB1C1B2D7

// MaxPayload bounds any message payload (4 MiB, same as Bitcoin's default
// block size ceiling of the era).
const MaxPayload = 4 << 20

// Command identifies the message type on the wire.
type Command uint8

// Message commands.
const (
	CmdVersion Command = iota + 1
	CmdVerack
	CmdPing
	CmdPong
	// CmdGetAddr and CmdAddr are reserved: no message of either kind is
	// built or decoded (nothing sends address gossip), and the numbers are
	// kept so that no later command, nor a trace event's Code, is
	// renumbered.
	CmdGetAddr
	CmdAddr
	CmdInv
	CmdGetData
	CmdTx
	CmdBlock
	// BCBPT extensions (paper §IV.B).
	CmdJoin
	CmdCluster
)

var commandNames = map[Command]string{
	CmdVersion: "version",
	CmdVerack:  "verack",
	CmdPing:    "ping",
	CmdPong:    "pong",
	CmdGetAddr: "getaddr",
	CmdAddr:    "addr",
	CmdInv:     "inv",
	CmdGetData: "getdata",
	CmdTx:      "tx",
	CmdBlock:   "block",
	CmdJoin:    "join",
	CmdCluster: "cluster",
}

// String implements fmt.Stringer.
func (c Command) String() string {
	if n, ok := commandNames[c]; ok {
		return n
	}
	return fmt.Sprintf("Command(%d)", uint8(c))
}

// Message is any wire message payload.
type Message interface {
	// Command returns the command byte identifying the message type.
	Command() Command
	// encodePayload appends the payload serialization to dst.
	encodePayload(dst []byte) []byte
	// payloadSize returns len(encodePayload(nil)) without encoding. The
	// simulator charges EncodedSize against link bandwidth on every
	// delivery, so sizing must not allocate; TestPayloadSizeMatchesEncoding
	// holds the two in lockstep for every message type.
	payloadSize() int
}

// InvType distinguishes inventory entries.
type InvType uint8

// Inventory types.
const (
	InvTx InvType = iota + 1
	InvBlock
)

// InvVect is one inventory entry: a typed hash.
type InvVect struct {
	Type InvType
	Hash chain.Hash
}

// NetAddr is a peer address as carried in VERSION, JOIN and CLUSTER
// messages. NodeID is authoritative; Host/Port are informational.
type NetAddr struct {
	NodeID uint64
	Host   [16]byte // IPv6-mapped address bytes
	Port   uint16
}

// --- Framing ---

const headerLen = 4 + 1 + 4 + 4 // magic + command + length + checksum

// ErrOversize means the payload exceeds MaxPayload.
var ErrOversize = errors.New("wire: oversized payload")

// checksum is the first 4 bytes of double-SHA256, as in Bitcoin.
func checksum(payload []byte) uint32 {
	h := chain.DoubleSHA256(payload)
	return binary.LittleEndian.Uint32(h[:4])
}

// Encode serializes msg into a framed wire packet.
func Encode(msg Message) ([]byte, error) {
	payload := msg.encodePayload(nil)
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrOversize, len(payload))
	}
	buf := make([]byte, headerLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], Magic)
	buf[4] = byte(msg.Command())
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[9:13], checksum(payload))
	copy(buf[headerLen:], payload)
	return buf, nil
}

// EncodedSize returns the framed size of msg in bytes — the quantity the
// simulator charges against link bandwidth. It computes the size without
// encoding: the flood hot path calls it once per delivery, and building
// (then discarding) the payload here used to be one slice allocation per
// simulated message.
func EncodedSize(msg Message) int {
	return headerLen + msg.payloadSize()
}
