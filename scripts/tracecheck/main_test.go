package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// writeTrace records n events — sends and first-sights, alternating — into
// a ring of the given size and exports the JSON.
func writeTrace(t *testing.T, ring, n int) string {
	t.Helper()
	tr := obs.NewTracer(ring, 1)
	for i := range n {
		ev := obs.Event{At: time.Duration(i+1) * time.Millisecond, Kind: obs.KindSend, Code: uint8(wire.CmdInv), P1: uint64(i + 1), P2: 2}
		if i%2 == 1 {
			ev.Kind, ev.Code = obs.KindFirstSeen, 0
		}
		tr.Shard(0).Record(ev)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteTraceJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckWholeTrace passes a trace whose ring kept every event.
func TestCheckWholeTrace(t *testing.T) {
	summary, err := check(writeTrace(t, 8, 6))
	if err != nil {
		t.Fatal(err)
	}
	if want := "6 events (measure=3 p2p=3), 0 dropped"; !strings.Contains(summary, want) {
		t.Errorf("summary %q, want it to say %q", summary, want)
	}
}

// TestCheckFailsOnDrops fails a trace whose ring overwrote events, naming
// what was kept and what was lost.
func TestCheckFailsOnDrops(t *testing.T) {
	_, err := check(writeTrace(t, 4, 6))
	if err == nil {
		t.Fatal("a trace that dropped 2 of 6 events passed")
	}
	if want := "kept 4 of 6 events (ring overwrote 2)"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q, want it to say %q", err, want)
	}
}

// TestCheckProtocolKinds passes a trace of the protocol kinds — a round-trip
// sample, a join decision, a cluster assignment — and of the connection
// kinds under their names and categories, and fails one holding a reserved
// kind the export cannot name.
func TestCheckProtocolKinds(t *testing.T) {
	export := func(kinds ...obs.Kind) string {
		tr := obs.NewTracer(16, 1)
		tr.Shard(0).Record(obs.Event{At: time.Millisecond, Kind: obs.KindSend, Code: uint8(wire.CmdPing), P1: 1, P2: 2})
		tr.Shard(0).Record(obs.Event{At: time.Millisecond, Kind: obs.KindFirstSeen, P1: 1})
		for i, k := range kinds {
			tr.Shard(0).Record(obs.Event{At: time.Duration(i+2) * time.Millisecond, Kind: k, P1: 1, P2: 2, P3: 3})
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteTraceJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kinds {
			if !strings.Contains(string(data), `"name":"`+k.String()+`"`) {
				t.Fatalf("export does not name kind %d %q", k, k)
			}
		}
		return path
	}
	summary, err := check(export(obs.KindRTT, obs.KindJoinDecision, obs.KindClusterAssign, obs.KindConnect, obs.KindDisconnect))
	if err != nil {
		t.Fatal(err)
	}
	if want := "7 events (measure=1 p2p=3 protocol=3), 0 dropped"; !strings.Contains(summary, want) {
		t.Errorf("summary %q, want it to say %q", summary, want)
	}
	if _, err := check(export(obs.Kind(9))); err == nil || !strings.Contains(err.Error(), "does not name") {
		t.Errorf("a trace holding reserved kind 9: err %v, want one saying the export does not name it", err)
	}
}
