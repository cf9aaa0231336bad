package obs

import (
	"bufio"
	"io"
	"strconv"

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
	case KindSend, KindDeliver, KindDrop, KindLoss, KindConnect, KindDisconnect:
		return "p2p"
	case KindFirstSeen, KindInject:
		return "measure"
	case KindRTT, KindJoinDecision, KindClusterAssign:
		return "protocol"
	default:
		return "obs"
	}
}

// WriteTraceJSON exports the merged event stream as Chrome trace_event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Timestamps are microseconds of simulation time. Every event is an
// instant.
//
// The JSON is handwritten field-by-field — no reflection, no maps — so
// the byte output is deterministic and cheap even for full rings.
func (t *Tracer) WriteTraceJSON(w io.Writer) error {
	events := t.Events()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	var scratch [32]byte
	for i, ev := range events {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(`{"name":"`)
		bw.WriteString(eventName(ev))
		bw.WriteString(`","cat":"`)
		bw.WriteString(eventCat(ev.Kind))
		bw.WriteString(`","ph":"i","ts":`)
		bw.Write(appendMicros(scratch[:0], int64(ev.At)))
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
