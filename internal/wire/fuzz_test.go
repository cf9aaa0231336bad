package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// frame wraps payload in a header whose length and checksum are true, as a
// hostile peer would send it: what the payload claims of itself need not be.
func frame(cmd Command, payload ...[]byte) []byte {
	body := bytes.Join(payload, nil)
	buf := make([]byte, headerLen, headerLen+len(body))
	binary.LittleEndian.PutUint32(buf[0:4], Magic)
	buf[4] = byte(cmd)
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[9:13], checksum(body))
	return append(buf, body...)
}

// hostileFrames are a few dozen bytes each, with a count or length field
// that claims the most its decoder's sanity bound allows and nothing behind
// it: every list of the protocol, a transaction's inputs and outputs, a
// block's transactions, and a bare header declaring MaxPayload to come.
func hostileFrames() map[string][]byte {
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	bare := frame(CmdPing)
	binary.LittleEndian.PutUint32(bare[5:9], MaxPayload)
	return map[string][]byte{
		"addr count":      frame(CmdAddr, u32(maxListLen)),
		"inv count":       frame(CmdInv, u32(maxListLen)),
		"getdata count":   frame(CmdGetData, u32(maxListLen)),
		"cluster count":   frame(CmdCluster, make([]byte, 9), u32(maxListLen)),
		"ping pad length": frame(CmdPing, make([]byte, 8), u32(maxListLen)),
		"tx input count":  frame(CmdTx, u32(1), u32(1<<16)),
		"tx output count": frame(CmdTx, u32(1), u32(0), u32(1<<16)),
		"block tx count":  frame(CmdBlock, make([]byte, 85), u32(1<<20)),
		"header alone":    bare,
	}
}

// allocatedBy returns the bytes f allocated (and whatever else the process
// did meanwhile, which decodeBudget's slack absorbs).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeBudget is what decoding n bytes may allocate: the structs a payload
// decodes into are a few times its size (a 44-byte transaction input becomes
// an 88-byte TxIn, a streamed payload a buffer that doubled on its way), and
// nothing a length field says adds to it.
func decodeBudget(n int) uint64 { return 64<<10 + 32*uint64(n) }

// decodeBoth runs data through Decode and through ReadMessage, holds each to
// decodeBudget, and requires the two to agree: the same verdict, and on
// acceptance the same message.
func decodeBoth(t *testing.T, data []byte) (Message, int, error) {
	t.Helper()
	var (
		msg, streamed Message
		n             int
		err, serr     error
	)
	if used := allocatedBy(func() { msg, n, err = Decode(data) }); used > decodeBudget(len(data)) {
		t.Fatalf("Decode allocated %d B for %d B of input", used, len(data))
	}
	if used := allocatedBy(func() { streamed, serr = ReadMessage(bytes.NewReader(data)) }); used > decodeBudget(len(data)) {
		t.Fatalf("ReadMessage allocated %d B for %d B of input", used, len(data))
	}
	if (err == nil) != (serr == nil) || !reflect.DeepEqual(msg, streamed) {
		t.Fatalf("Decode: %+v, %v; ReadMessage: %+v, %v", msg, err, streamed, serr)
	}
	return msg, n, err
}

// TestDecodeHostileLengths: a length the sender declares sizes no
// allocation until the bytes behind it have arrived. All but the ping used
// to cost their receiver between 2 MB (a transaction's output count) and
// 8.7 MB (a list grown to 50,000 zero entries) for about a hundred bytes
// sent.
func TestDecodeHostileLengths(t *testing.T) {
	for name, data := range hostileFrames() {
		t.Run(name, func(t *testing.T) {
			if msg, _, err := decodeBoth(t, data); err == nil {
				t.Fatalf("accepted as %+v", msg)
			}
		})
	}
}

// FuzzDecode feeds Decode and ReadMessage arbitrary bytes. Neither may
// panic or allocate by a length field beyond its input, the two must agree,
// and what they accept must be a frame of exactly the size the message
// encodes to, which encodes and decodes again to an equal message.
func FuzzDecode(f *testing.F) {
	for _, m := range allMessages(f) {
		buf, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
	}
	for _, data := range hostileFrames() {
		f.Add(data)
	}
	f.Add(frame(CmdCluster, make([]byte, 8), []byte{2, 0, 0, 0, 0})) // accepted flag neither 0 nor 1
	f.Add(frame(Command(200)))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := decodeBoth(t, data)
		if err != nil {
			return
		}
		if n > len(data) || n != EncodedSize(msg) {
			t.Fatalf("consumed %d of %d bytes for a message that encodes to %d", n, len(data), EncodedSize(msg))
		}
		buf, err := Encode(msg)
		if err != nil {
			t.Fatalf("re-encoding an accepted %s: %v", msg.Command(), err)
		}
		again, m, err := Decode(buf)
		if err != nil || m != len(buf) || !reflect.DeepEqual(msg, again) {
			t.Fatalf("%s does not survive a round trip: %+v, then %+v (%d of %d bytes, err %v)", msg.Command(), msg, again, m, len(buf), err)
		}
	})
}
