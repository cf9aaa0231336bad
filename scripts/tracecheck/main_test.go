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
