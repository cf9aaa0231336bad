// Package wire implements a Bitcoin-style binary wire protocol: framed
// messages with a magic prefix, a 12-byte command, an explicit length and
// a double-SHA256 checksum, followed by a typed payload.
//
// The same messages drive both the discrete-event simulator (where only
// payload sizes and types matter) and the live TCP node in
// internal/netnode (where the full framing goes on the socket). Keeping a
// single codec means the simulated and real protocols cannot drift apart.
//
// Message set: the standard Bitcoin handshake and relay messages
// (VERSION/VERACK/PING/PONG/ADDR/GETADDR/INV/GETDATA/TX/BLOCK) plus the
// BCBPT extensions from §IV.B of the paper: JOIN (a node asks the closest
// discovered node for membership) and CLUSTER (the accepting node returns
// the IPs of its cluster members).
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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
	// decodePayload parses the payload.
	decodePayload(src []byte) error
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

// String implements fmt.Stringer.
func (t InvType) String() string {
	switch t {
	case InvTx:
		return "tx"
	case InvBlock:
		return "block"
	default:
		return fmt.Sprintf("InvType(%d)", uint8(t))
	}
}

// InvVect is one inventory entry: a typed hash.
type InvVect struct {
	Type InvType
	Hash chain.Hash
}

// NetAddr is a peer address as carried in ADDR/CLUSTER messages. In the
// simulator NodeID is authoritative and Host/Port are informational; on
// TCP the reverse.
type NetAddr struct {
	NodeID uint64
	Host   [16]byte // IPv6-mapped address bytes
	Port   uint16
}

// --- Framing ---

const headerLen = 4 + 1 + 4 + 4 // magic + command + length + checksum

var (
	// ErrBadMagic means the frame does not start with the network magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrBadChecksum means the payload hash does not match the header.
	ErrBadChecksum = errors.New("wire: bad checksum")
	// ErrOversize means the declared payload exceeds MaxPayload.
	ErrOversize = errors.New("wire: oversized payload")
	// ErrUnknownCommand means the command byte is not recognised.
	ErrUnknownCommand = errors.New("wire: unknown command")
)

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

// newMessage allocates an empty message for a command.
func newMessage(cmd Command) (Message, error) {
	switch cmd {
	case CmdVersion:
		return &MsgVersion{}, nil
	case CmdVerack:
		return &MsgVerack{}, nil
	case CmdPing:
		return &MsgPing{}, nil
	case CmdPong:
		return &MsgPong{}, nil
	case CmdGetAddr:
		return &MsgGetAddr{}, nil
	case CmdAddr:
		return &MsgAddr{}, nil
	case CmdInv:
		return &MsgInv{}, nil
	case CmdGetData:
		return &MsgGetData{}, nil
	case CmdTx:
		return &MsgTx{}, nil
	case CmdBlock:
		return &MsgBlock{}, nil
	case CmdJoin:
		return &MsgJoin{}, nil
	case CmdCluster:
		return &MsgCluster{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownCommand, cmd)
	}
}

// parseHeader checks a frame's header and returns what it declares: the
// command, the payload's length and its checksum.
func parseHeader(hdr []byte) (cmd Command, plen int, sum uint32, err error) {
	if binary.LittleEndian.Uint32(hdr[0:4]) != Magic {
		return 0, 0, 0, ErrBadMagic
	}
	n := binary.LittleEndian.Uint32(hdr[5:9])
	if n > MaxPayload {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes", ErrOversize, n)
	}
	return Command(hdr[4]), int(n), binary.LittleEndian.Uint32(hdr[9:13]), nil
}

// decodeBody checks a payload against its header's checksum and parses it
// as the message its command names.
func decodeBody(cmd Command, payload []byte, sum uint32) (Message, error) {
	if checksum(payload) != sum {
		return nil, ErrBadChecksum
	}
	msg, err := newMessage(cmd)
	if err != nil {
		return nil, err
	}
	if err := msg.decodePayload(payload); err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", cmd, err)
	}
	return msg, nil
}

// Decode parses one framed packet from data, returning the message and
// the number of bytes consumed.
func Decode(data []byte) (Message, int, error) {
	if len(data) < headerLen {
		return nil, 0, io.ErrUnexpectedEOF
	}
	cmd, plen, sum, err := parseHeader(data)
	if err != nil {
		return nil, 0, err
	}
	total := headerLen + plen
	if len(data) < total {
		return nil, 0, io.ErrUnexpectedEOF
	}
	msg, err := decodeBody(cmd, data[headerLen:total], sum)
	if err != nil {
		return nil, 0, err
	}
	return msg, total, nil
}

// ReadMessage reads one framed message from r (blocking until a full
// frame arrives). Used by the TCP transport. The declared length is the
// peer's word until the bytes arrive, so the payload buffer grows as they
// do: a header alone cannot size an allocation.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	cmd, plen, sum, err := parseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	var payload bytes.Buffer
	if _, err := io.CopyN(&payload, r, int64(plen)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return decodeBody(cmd, payload.Bytes(), sum)
}

// WriteMessage frames and writes msg to w.
func WriteMessage(w io.Writer, msg Message) error {
	buf, err := Encode(msg)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// EncodedSize returns the framed size of msg in bytes — the quantity the
// simulator charges against link bandwidth. It computes the size without
// encoding: the flood hot path calls it once per delivery, and building
// (then discarding) the payload here used to be one slice allocation per
// simulated message.
func EncodedSize(msg Message) int {
	return headerLen + msg.payloadSize()
}
