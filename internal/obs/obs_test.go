package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestShardRingWrap(t *testing.T) {
	tr := NewTracer(4, 1)
	s := tr.Shard(0)
	for i := 0; i < 10; i++ {
		s.Record(Event{At: time.Duration(i), Kind: KindSend, P1: uint64(i)})
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := s.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("merged %d events, want 4", len(events))
	}
	// The four newest survive, in order.
	for i, ev := range events {
		if want := uint64(6 + i); ev.P1 != want {
			t.Fatalf("event %d: P1 = %d, want %d", i, ev.P1, want)
		}
	}
}

func TestTracerMergeCanonicalOrder(t *testing.T) {
	tr := NewTracer(16, 3)
	// Interleave: shard 2 records earlier sim times than shard 1.
	tr.Shard(1).Record(Event{At: 30, Kind: KindDeliver, P1: 1})
	tr.Shard(2).Record(Event{At: 10, Kind: KindSend, P1: 2})
	tr.Shard(0).Record(Event{At: 20, Kind: KindInject, P1: 3})
	tr.Shard(2).Record(Event{At: 20, Kind: KindDeliver, P1: 4})
	events := tr.Events()
	var order []uint64
	for _, ev := range events {
		order = append(order, ev.P1)
	}
	// Sort by At, ties broken by shard ID (shard 0 before shard 2).
	want := []uint64{2, 3, 4, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("merge order = %v, want %v", order, want)
		}
	}
}

func TestWriteTraceJSONShape(t *testing.T) {
	tr := NewTracer(16, 1)
	s := tr.Shard(0)
	s.Record(Event{At: 1500 * time.Nanosecond, Kind: KindSend, Code: 3, P1: 1, P2: 2, P3: 61})
	s.Record(Event{At: 2 * time.Microsecond, Kind: KindInject, P1: 4, P2: 5000})
	s.Record(Event{Kind: KindFirstSeen, P1: 7})
	var buf bytes.Buffer
	if err := tr.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Tid  uint64  `json:"tid"`
			Args map[string]uint64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d trace events, want 3", len(doc.TraceEvents))
	}
	first := doc.TraceEvents[1] // first-seen sorts first (At 0), send second
	if !strings.HasPrefix(first.Name, "send/") {
		t.Fatalf("send event name = %q, want send/<command>", first.Name)
	}
	if first.Ts != 1.5 {
		t.Fatalf("send ts = %v µs, want 1.5", first.Ts)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "i" {
			t.Fatalf("event %q has phase %q, want an instant", ev.Name, ev.Ph)
		}
	}
}

// TestKindValues pins the kind values: a recorded kind keeps its number
// for good, the retired values 7–13 stay reserved and render as
// "unknown", the protocol kinds append from 14 and the connection kinds
// from 17.
func TestKindValues(t *testing.T) {
	if KindInject != 6 {
		t.Fatalf("KindInject = %d, want 6", KindInject)
	}
	if KindRTT != 14 || KindJoinDecision != 15 || KindClusterAssign != 16 {
		t.Fatalf("protocol kinds are %d, %d, %d, want 14, 15, 16", KindRTT, KindJoinDecision, KindClusterAssign)
	}
	if KindConnect != 17 || KindDisconnect != 18 {
		t.Fatalf("connection kinds are %d, %d, want 17, 18", KindConnect, KindDisconnect)
	}
	if numKinds != 19 {
		t.Fatalf("numKinds = %d, want 19: a new kind appends after KindDisconnect", numKinds)
	}
	for k := Kind(7); k <= 13; k++ {
		if got := k.String(); got != "unknown" {
			t.Fatalf("reserved kind %d renders as %q, want unknown", k, got)
		}
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	tr := NewTracer(1024, 1)
	s := tr.Shard(0)
	allocs := testing.AllocsPerRun(1000, func() {
		s.Record(Event{At: 1, Kind: KindSend, Code: 2, P1: 3, P2: 4, P3: 5})
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
}
