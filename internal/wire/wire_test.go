package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/chain"
)

func testKey(t testing.TB, seed int64) *chain.KeyPair {
	t.Helper()
	k, err := chain.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func sampleAddr(id uint64) NetAddr {
	var host [16]byte
	host[15] = byte(id)
	return NetAddr{NodeID: id, Host: host, Port: 8333}
}

// allMessages returns one populated instance of every message type.
func allMessages(t testing.TB) []Message {
	t.Helper()
	key := testKey(t, 1)
	cb := chain.Coinbase(1, 5000, key.Address())
	blk := &chain.Block{
		Header: chain.BlockHeader{Version: 1, MerkleRoot: chain.MerkleRoot([]*chain.Tx{cb}), TargetBits: 2},
		Txs:    []*chain.Tx{cb},
	}
	if !blk.Mine(1 << 16) {
		t.Fatal("mining failed")
	}
	return []Message{
		&MsgVersion{Protocol: 70015, Self: sampleAddr(7), Height: 42, UserAgent: "bcbpt-test"},
		&MsgVerack{},
		&MsgPing{Nonce: 0xDEADBEEF, Pad: bytes.Repeat([]byte{0xAA}, 19)},
		&MsgPong{Nonce: 0xDEADBEEF},
		&MsgInv{Items: []InvVect{{Type: InvTx, Hash: cb.ID()}, {Type: InvBlock, Hash: chain.Hash{9}}}},
		&MsgGetData{Items: []InvVect{{Type: InvTx, Hash: cb.ID()}}},
		&MsgTx{Tx: cb},
		&MsgBlock{Block: blk},
		&MsgJoin{Self: sampleAddr(12), MeasuredRTTMicros: 18_500},
		&MsgCluster{ClusterID: 3, Accepted: true, Members: []NetAddr{sampleAddr(4), sampleAddr(5)}},
	}
}

// TestEncodeFrameHeader checks the frame Encode puts around every payload:
// the network magic, the command byte, the payload length and the first
// four bytes of the payload's double-SHA256.
func TestEncodeFrameHeader(t *testing.T) {
	for _, m := range allMessages(t) {
		buf, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		payload := buf[headerLen:]
		if got := binary.LittleEndian.Uint32(buf[0:4]); got != Magic {
			t.Errorf("%s: magic = %#x, want %#x", m.Command(), got, Magic)
		}
		if got := Command(buf[4]); got != m.Command() {
			t.Errorf("%s: command byte = %v", m.Command(), got)
		}
		if got := binary.LittleEndian.Uint32(buf[5:9]); int(got) != len(payload) {
			t.Errorf("%s: length field = %d, payload = %d bytes", m.Command(), got, len(payload))
		}
		if got := binary.LittleEndian.Uint32(buf[9:13]); got != checksum(payload) {
			t.Errorf("%s: checksum field = %#x, want %#x", m.Command(), got, checksum(payload))
		}
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	for _, msg := range allMessages(t) {
		t.Run(msg.Command().String(), func(t *testing.T) {
			buf, err := Encode(msg)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			decoded, n, err := decode(buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if n != len(buf) {
				t.Errorf("consumed %d of %d bytes", n, len(buf))
			}
			if decoded.Command() != msg.Command() {
				t.Errorf("command = %v, want %v", decoded.Command(), msg.Command())
			}
			// Re-encoding the decoded message must be byte-identical:
			// catches asymmetric encode/decode bugs for every type.
			buf2, err := Encode(decoded)
			if err != nil {
				t.Fatalf("re-Encode: %v", err)
			}
			if !bytes.Equal(buf, buf2) {
				t.Error("round trip is not byte-identical")
			}
		})
	}
}

func TestRoundTripStructEquality(t *testing.T) {
	// For plain-struct messages, check deep equality too.
	msgs := []Message{
		&MsgVersion{Protocol: 1, Self: sampleAddr(9), Height: 7, UserAgent: "x"},
		&MsgPong{Nonce: 77},
		&MsgJoin{Self: sampleAddr(3), MeasuredRTTMicros: 123},
		&MsgCluster{ClusterID: 8, Accepted: false, Members: []NetAddr{sampleAddr(2)}},
	}
	for _, msg := range msgs {
		buf, err := Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		decoded, _, err := decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(msg, decoded) {
			t.Errorf("%s: decoded %+v, want %+v", msg.Command(), decoded, msg)
		}
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	buf, err := Encode(&MsgVerack{})
	if err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if _, _, err := decode(buf); !errors.Is(err, errBadMagic) {
		t.Errorf("error = %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsBadChecksum(t *testing.T) {
	buf, err := Encode(&MsgPong{Nonce: 5})
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if _, _, err := decode(buf); !errors.Is(err, errBadChecksum) {
		t.Errorf("error = %v, want ErrBadChecksum", err)
	}
}

// TestDecodeRejectsUnknownCommand: a command byte with no message type —
// a number never assigned, or one of the reserved address-gossip numbers —
// does not decode.
func TestDecodeRejectsUnknownCommand(t *testing.T) {
	for _, cmd := range []Command{0xEE, CmdGetAddr, CmdAddr} {
		buf, err := Encode(&MsgVerack{})
		if err != nil {
			t.Fatal(err)
		}
		buf[4] = byte(cmd)
		if _, _, err := decode(buf); !errors.Is(err, errUnknownCommand) {
			t.Errorf("command %d: error = %v, want ErrUnknownCommand", cmd, err)
		}
	}
}

func TestDecodeRejectsOversizeHeader(t *testing.T) {
	buf, err := Encode(&MsgVerack{})
	if err != nil {
		t.Fatal(err)
	}
	buf[5], buf[6], buf[7], buf[8] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, _, err := decode(buf); !errors.Is(err, ErrOversize) {
		t.Errorf("error = %v, want ErrOversize", err)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if _, _, err := decode([]byte{1, 2, 3}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("error = %v, want ErrUnexpectedEOF", err)
	}
	buf, err := Encode(&MsgPing{Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decode(buf[:len(buf)-2]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("error = %v, want ErrUnexpectedEOF", err)
	}
}

func TestDecodeTrailingPayloadBytesRejected(t *testing.T) {
	// Hand-build a verack frame with 1 payload byte: verack expects 0.
	payload := []byte{0x00}
	buf := make([]byte, 13+1)
	copy(buf[0:4], []byte{0xD7, 0xB2, 0xC1, 0xB1}) // Magic little-endian
	buf[4] = byte(CmdVerack)
	buf[5] = 1
	h := chain.DoubleSHA256(payload)
	copy(buf[9:13], h[:4])
	copy(buf[13:], payload)
	if _, _, err := decode(buf); err == nil {
		t.Error("verack with payload accepted")
	}
}

func TestHostileListLengths(t *testing.T) {
	// A list claiming 2^32-1 entries must be rejected without allocating.
	payload := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := decodePayload(CmdInv, payload); err == nil {
		t.Error("hostile inv count accepted")
	}
	if _, err := decodePayload(CmdCluster, append(bytes.Repeat([]byte{0}, 9), payload...)); err == nil {
		t.Error("hostile cluster count accepted")
	}
}

func TestInvTypeValidation(t *testing.T) {
	m := &MsgInv{Items: []InvVect{{Type: InvType(99), Hash: chain.Hash{1}}}}
	buf := m.encodePayload(nil)
	if _, err := decodePayload(CmdInv, buf); err == nil {
		t.Error("unknown inv type accepted")
	}
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	for _, m := range allMessages(t) {
		buf, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodedSize(m); got != len(buf) {
			t.Errorf("%s: EncodedSize = %d, want %d", m.Command(), got, len(buf))
		}
	}
}

// TestVersionUserAgentTruncated checks that a user agent longer than its
// one-byte length is cut to 255 bytes on the wire, that EncodedSize agrees,
// and that encoding leaves the caller's message as it was.
func TestVersionUserAgentTruncated(t *testing.T) {
	long := string(bytes.Repeat([]byte{'a'}, 300))
	m := &MsgVersion{UserAgent: long}
	buf, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if EncodedSize(m) != len(buf) {
		t.Errorf("EncodedSize = %d, encoded frame = %d bytes", EncodedSize(m), len(buf))
	}
	if n := buf[headerLen+4+netAddrSize+4]; n != 255 {
		t.Errorf("user agent length byte = %d, want 255", n)
	}
	if len(m.UserAgent) != 300 {
		t.Errorf("Encode changed the message: user agent is %d bytes, want 300", len(m.UserAgent))
	}
}

func TestCommandStrings(t *testing.T) {
	for cmd, want := range commandNames {
		if cmd.String() != want {
			t.Errorf("Command(%d).String() = %q, want %q", cmd, cmd.String(), want)
		}
	}
	if Command(200).String() == "" {
		t.Error("unknown command should still stringify")
	}
}

// Property: ping pad length round-trips for any size within limits.
func TestPropertyPingPadRoundTrip(t *testing.T) {
	f := func(n uint16) bool {
		m := &MsgPing{Nonce: uint64(n), Pad: make([]byte, int(n)%4096)}
		buf, err := Encode(m)
		if err != nil {
			return false
		}
		d, _, err := decode(buf)
		if err != nil {
			return false
		}
		return len(d.(*MsgPing).Pad) == len(m.Pad)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeInv100(b *testing.B) {
	items := make([]InvVect, 100)
	for i := range items {
		items[i] = InvVect{Type: InvTx, Hash: chain.DoubleSHA256([]byte{byte(i)})}
	}
	m := &MsgInv{Items: items}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPayloadSizeMatchesEncoding holds the allocation-free payloadSize in
// lockstep with the actual encoding for every message type — EncodedSize
// charges link bandwidth on every simulated delivery, so a drifting size
// would silently skew the latency model.
func TestPayloadSizeMatchesEncoding(t *testing.T) {
	msgs := allMessages(t)
	msgs = append(msgs,
		&MsgVersion{},
		&MsgPing{},
		&MsgInv{},
		&MsgGetData{},
		&MsgCluster{},
		&MsgVersion{UserAgent: string(bytes.Repeat([]byte{'x'}, 300))}, // truncated to 255
	)
	for _, msg := range msgs {
		got := msg.payloadSize()
		want := len(msg.encodePayload(nil))
		if got != want {
			t.Errorf("%s: payloadSize() = %d, encoded payload = %d bytes", msg.Command(), got, want)
		}
		if EncodedSize(msg) != headerLen+want {
			t.Errorf("%s: EncodedSize = %d, want %d", msg.Command(), EncodedSize(msg), headerLen+want)
		}
	}
}
