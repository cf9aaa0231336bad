package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/wire"
)

// eventName renders the display name for a trace export: message kinds
// carry the wire command ("send/inv"), everything else the bare kind.
func eventName(ev Event) string {
	switch ev.Kind {
	case KindSend, KindDeliver, KindDrop, KindLoss:
		return ev.Kind.String() + "/" + wire.Command(ev.Code).String()
	default:
		return ev.Kind.String()
	}
}

// eventCat groups events into Perfetto categories.
func eventCat(k Kind) string {
	switch k {
	case KindSend, KindDeliver, KindDrop, KindLoss:
		return "p2p"
	case KindFirstSeen, KindInject:
		return "measure"
	case KindLeaseGrant, KindLeaseRenew, KindLeaseExpire, KindLeaseCommit:
		return "fleet"
	default:
		return "obs"
	}
}

// WriteTraceJSON exports the merged event stream as Chrome trace_event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Timestamps are microseconds of simulation time; events recorded
// outside the simulation (At zero, Wall set) fall back to wall time
// relative to the earliest wall stamp. Every event is an instant.
//
// The JSON is handwritten field-by-field — no reflection, no maps — so
// the byte output is deterministic and cheap even for full rings.
func (t *Tracer) WriteTraceJSON(w io.Writer) error {
	events := t.Events()
	var wallBase int64
	for _, ev := range events {
		if ev.At == 0 && ev.Wall != 0 && (wallBase == 0 || ev.Wall < wallBase) {
			wallBase = ev.Wall
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	var scratch [32]byte
	for i, ev := range events {
		if i > 0 {
			bw.WriteByte(',')
		}
		tsNanos := int64(ev.At)
		if tsNanos == 0 && ev.Wall != 0 {
			tsNanos = ev.Wall - wallBase
		}
		bw.WriteString(`{"name":"`)
		bw.WriteString(eventName(ev))
		bw.WriteString(`","cat":"`)
		bw.WriteString(eventCat(ev.Kind))
		bw.WriteString(`","ph":"i","ts":`)
		bw.Write(appendMicros(scratch[:0], tsNanos))
		// tid is P1 — the source node for message events, giving one
		// Perfetto track per sender.
		bw.WriteString(`,"s":"p","pid":0,"tid":`)
		bw.Write(strconv.AppendUint(scratch[:0], ev.P1, 10))
		bw.WriteString(`,"args":{"p1":`)
		bw.Write(strconv.AppendUint(scratch[:0], ev.P1, 10))
		bw.WriteString(`,"p2":`)
		bw.Write(strconv.AppendUint(scratch[:0], ev.P2, 10))
		bw.WriteString(`,"p3":`)
		bw.Write(strconv.AppendUint(scratch[:0], ev.P3, 10))
		bw.WriteString(`}}`)
	}
	if _, err := bw.WriteString(`],"otherData":{"droppedEvents":` +
		strconv.FormatUint(t.Dropped(), 10) + `}}`); err != nil {
		return err
	}
	return bw.Flush()
}

// appendMicros renders nanos as decimal microseconds with three
// fractional digits ("12.345"), avoiding float formatting entirely.
func appendMicros(dst []byte, nanos int64) []byte {
	if nanos < 0 {
		dst = append(dst, '-')
		nanos = -nanos
	}
	dst = strconv.AppendInt(dst, nanos/1000, 10)
	frac := nanos % 1000
	dst = append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return dst
}

// Binary spool format: an 8-byte magic, a little-endian uint64 event
// count, then fixed 42-byte records (At, Wall int64; P1..P3 uint64;
// Kind, Code uint8). ~23x denser than the JSON and loadable without a
// JSON parser for post-hoc analysis.
const spoolMagic = "BCBPTTR1"

const spoolRecordSize = 8*5 + 2

// WriteSpool exports the merged event stream in the compact binary
// spool format.
func (t *Tracer) WriteSpool(w io.Writer) error {
	events := t.Events()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(spoolMagic); err != nil {
		return err
	}
	var rec [spoolRecordSize]byte
	binary.LittleEndian.PutUint64(rec[:8], uint64(len(events)))
	bw.Write(rec[:8])
	for _, ev := range events {
		binary.LittleEndian.PutUint64(rec[0:], uint64(int64(ev.At)))
		binary.LittleEndian.PutUint64(rec[8:], uint64(ev.Wall))
		binary.LittleEndian.PutUint64(rec[16:], ev.P1)
		binary.LittleEndian.PutUint64(rec[24:], ev.P2)
		binary.LittleEndian.PutUint64(rec[32:], ev.P3)
		rec[40] = byte(ev.Kind)
		rec[41] = ev.Code
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spoolPrealloc caps what ReadSpool allocates on the header's word alone
// (64 Ki events, 3 MB): beyond it the slice grows as records arrive, so a
// header that claims more than the file holds costs what the file holds.
const spoolPrealloc = 1 << 16

// ReadSpool parses a binary spool back into events, validating the
// magic and record framing.
func ReadSpool(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("obs: spool header: %w", err)
	}
	if string(hdr[:8]) != spoolMagic {
		return nil, fmt.Errorf("obs: bad spool magic %q", hdr[:8])
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	events := make([]Event, 0, min(n, spoolPrealloc))
	var rec [spoolRecordSize]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("obs: spool record %d of %d: %w", i, n, err)
		}
		events = append(events, Event{
			At:   time.Duration(binary.LittleEndian.Uint64(rec[0:])),
			Wall: int64(binary.LittleEndian.Uint64(rec[8:])),
			P1:   binary.LittleEndian.Uint64(rec[16:]),
			P2:   binary.LittleEndian.Uint64(rec[24:]),
			P3:   binary.LittleEndian.Uint64(rec[32:]),
			Kind: Kind(rec[40]),
			Code: rec[41],
		})
	}
	return events, nil
}
