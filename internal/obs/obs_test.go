package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
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

func TestTracerReset(t *testing.T) {
	tr := NewTracer(8, 2)
	tr.Shard(1).Record(Event{At: 1, Kind: KindSend})
	tr.Reset()
	if tr.Len() != 0 || len(tr.Events()) != 0 {
		t.Fatalf("Reset left %d events", tr.Len())
	}
}

func TestWriteTraceJSONShape(t *testing.T) {
	tr := NewTracer(16, 1)
	s := tr.Shard(0)
	s.Record(Event{At: 1500 * time.Nanosecond, Kind: KindSend, Code: 3, P1: 1, P2: 2, P3: 61})
	s.Record(Event{At: 2 * time.Microsecond, Kind: KindInject, P1: 4, P2: 5000})
	s.Record(Event{Wall: 12345, Kind: KindLeaseGrant, P1: 7})
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
	first := doc.TraceEvents[1] // lease event sorts first (At 0), send second
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

func TestSpoolRoundTrip(t *testing.T) {
	tr := NewTracer(16, 2)
	tr.Shard(0).Record(Event{At: 5, Kind: KindFirstSeen, P1: 9, P2: 0xdeadbeef})
	tr.Shard(1).Record(Event{At: 3, Wall: 77, Kind: KindDeliver, Code: 4, P1: 1, P2: 2, P3: 3})
	// Kind values are the spool format. 7–9 are reserved (retired window
	// kinds), so the lease kinds must keep 10–13 for spools written before
	// the retirement to decode, and a reserved value must still round-trip.
	for i, k := range []Kind{KindLeaseGrant, KindLeaseRenew, KindLeaseExpire, KindLeaseCommit} {
		if want := Kind(10 + i); k != want {
			t.Fatalf("%v has value %d, want %d: spooled lease events would decode as another kind", k, k, want)
		}
		tr.Shard(0).Record(Event{Wall: int64(100 + i), Kind: k, P1: uint64(i)})
	}
	tr.Shard(1).Record(Event{At: 4, Kind: Kind(7), P1: 1})
	if got := Kind(7).String(); got != "unknown" {
		t.Fatalf("reserved kind 7 renders as %q, want unknown", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteSpool(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpool(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("%d events round-tripped, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := ReadSpool(bytes.NewReader([]byte("NOTMAGIC00000000"))); err == nil {
		t.Fatal("bad magic accepted")
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

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`bcbpt_messages_total{command="inv"}`).Add(41)
	r.Counter(`bcbpt_messages_total{command="inv"}`).Inc()
	r.Counter(`bcbpt_messages_total{command="tx"}`).Add(7)
	r.Gauge("bcbpt_fleet_units_pending").Set(12)
	h := r.Histogram(`bcbpt_unit_run_seconds{campaign="bitcoin"}`)
	h.Observe(2 * time.Second)
	h.Observe(4 * time.Second)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE bcbpt_fleet_units_pending gauge\n",
		"bcbpt_fleet_units_pending 12\n",
		"# TYPE bcbpt_messages_total counter\n",
		`bcbpt_messages_total{command="inv"} 42` + "\n",
		`bcbpt_messages_total{command="tx"} 7` + "\n",
		"# TYPE bcbpt_unit_run_seconds summary\n",
		`bcbpt_unit_run_seconds_sum{campaign="bitcoin"} 6` + "\n",
		`bcbpt_unit_run_seconds_count{campaign="bitcoin"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The series labelled quantile="0.5" is the median, to the sketch's
	// value accuracy: halfway between the two observations.
	const p50 = `bcbpt_unit_run_seconds{campaign="bitcoin",quantile="0.5"} `
	_, rest, ok := strings.Cut(out, p50)
	if !ok {
		t.Fatalf("exposition missing %q:\n%s", p50, out)
	}
	line, _, _ := strings.Cut(rest, "\n")
	if got, err := strconv.ParseFloat(line, 64); err != nil || math.Abs(got-3) > 3*sketchTolerance {
		t.Fatalf("p50 of {2s, 4s} rendered as %q (%v), want about 3", line, err)
	}
	// Deterministic: two renders are byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("exposition is not deterministic")
	}
}

// spoolOf returns the binary spool of a tracer holding n events.
func spoolOf(tb testing.TB, n int) []byte {
	tb.Helper()
	tr := NewTracer(64, 2)
	for i := 0; i < n; i++ {
		tr.Shard(i % 2).Record(Event{At: time.Duration(i) * time.Millisecond, Wall: int64(i), Kind: Kind(i % 7), Code: uint8(i),
			P1: uint64(i), P2: uint64(i) << 32, P3: ^uint64(i)})
	}
	var buf bytes.Buffer
	if err := tr.WriteSpool(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadSpoolHostileCount: the event count is the file's word, so it may
// not size an allocation. A header claiming 2^60 events over no records,
// and one claiming a record more than the file holds, are both truncated
// spools.
func TestReadSpoolHostileCount(t *testing.T) {
	hostile := append([]byte(spoolMagic), 0, 0, 0, 0, 0, 0, 0, 0x10)
	oneShort := spoolOf(t, 5)
	oneShort[8]++
	for name, data := range map[string][]byte{"2^60 events": hostile, "one record short": oneShort} {
		if _, err := ReadSpool(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "spool record") {
			t.Errorf("%s: err = %v, want the truncated-record error", name, err)
		}
	}
}

// FuzzReadSpool feeds ReadSpool arbitrary bytes: it must return, never
// panic or allocate by the header's count, and whatever it accepts must
// account for every byte it was given a count for.
func FuzzReadSpool(f *testing.F) {
	real := spoolOf(f, 9)
	f.Add(real)
	f.Add(append([]byte(spoolMagic), 0, 0, 0, 0, 0, 0, 0, 0x10))
	oneShort := bytes.Clone(real)
	oneShort[8]++
	f.Add(oneShort)
	f.Add([]byte(spoolMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadSpool(bytes.NewReader(data))
		if err != nil {
			return
		}
		if want := uint64(len(events)); binary.LittleEndian.Uint64(data[8:16]) != want || len(data) < 16+len(events)*spoolRecordSize {
			t.Fatalf("accepted %d events from %d bytes with header count %d", len(events), len(data), binary.LittleEndian.Uint64(data[8:16]))
		}
	})
}
