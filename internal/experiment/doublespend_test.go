package experiment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestDoubleSpendGolden pins the tables `bcbpt-sim -experiment doublespend
// -nodes 300 -seed 3` prints, byte for byte, against
// testdata/doublespend_300.txt: the race's outcome at every node follows
// from which spend reaches it first, so a change to relay timing or to the
// conflict rule shows here. If a change is meant to move the tables,
// regenerate the file from that command's output, without its header and
// wall-time lines.
func TestDoubleSpendGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("two 300-node networks; skipped in -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "doublespend_300.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, proto := range []ProtocolKind{ProtoBitcoin, ProtoBCBPT} {
		res, err := DoubleSpend(context.Background(), DoubleSpendSpec{
			Nodes:    300,
			Seed:     3,
			Protocol: proto,
			BCBPT:    core.DefaultConfig(),
			Offsets:  []time.Duration{0, 50 * time.Millisecond, 150 * time.Millisecond, 500 * time.Millisecond, time.Second},
			Trials:   5,
			Deadline: 2 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&got, res)
	}
	if got.String() != string(want) {
		t.Fatalf("doublespend tables diverged from the golden:\n%s\nwant:\n%s", got.String(), want)
	}
}

func TestDoubleSpendRaceBasics(t *testing.T) {
	res, err := DoubleSpend(context.Background(), DoubleSpendSpec{
		Nodes:    60,
		Seed:     21,
		Protocol: ProtoBitcoin,
		Offsets:  []time.Duration{0, 500 * time.Millisecond},
		Trials:   3,
		Deadline: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.AttackerShare < 0 || p.AttackerShare > 1 {
			t.Errorf("offset %v: share %v out of range", p.Offset, p.AttackerShare)
		}
		if p.Success < 0 || p.Success > 1 {
			t.Errorf("offset %v: success %v out of range", p.Offset, p.Success)
		}
	}
	if res.String() == "" {
		t.Error("String empty")
	}
}

func TestDoubleSpendShareFallsWithOffset(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-race experiment")
	}
	// The defining relationship: the longer the victim tx's head start,
	// the smaller the attacker's share of the network.
	res, err := DoubleSpend(context.Background(), DoubleSpendSpec{
		Nodes:    80,
		Seed:     22,
		Protocol: ProtoBitcoin,
		Offsets:  []time.Duration{0, 2 * time.Second},
		Trials:   4,
		Deadline: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	early := res.Points[0].AttackerShare
	late := res.Points[1].AttackerShare
	t.Logf("attacker share: offset 0 -> %.3f, offset 2s -> %.3f", early, late)
	if late >= early && early > 0.02 {
		t.Errorf("attacker share did not fall with offset: %.3f -> %.3f", early, late)
	}
	// With a 2-second head start on a sub-second-propagation network,
	// the attack should be essentially dead.
	if late > 0.15 {
		t.Errorf("attacker share %.3f after 2s head start; propagation too slow", late)
	}
}

func TestDoubleSpendBCBPTShrinksWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-network experiment")
	}
	// At a mid offset, the faster protocol should leave the attacker a
	// smaller share — the paper's security argument, end to end.
	const offset = 150 * time.Millisecond
	run := func(kind ProtocolKind) float64 {
		res, err := DoubleSpend(context.Background(), DoubleSpendSpec{
			Nodes:    80,
			Seed:     23,
			Protocol: kind,
			BCBPT:    fastBCBPT(25 * time.Millisecond),
			Offsets:  []time.Duration{offset},
			Trials:   4,
			Deadline: time.Minute,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		t.Logf("%s attacker share at %v offset: %.3f", kind, offset, res.Points[0].AttackerShare)
		return res.Points[0].AttackerShare
	}
	bitcoin := run(ProtoBitcoin)
	bcbpt := run(ProtoBCBPT)
	if bcbpt > bitcoin+0.05 {
		t.Errorf("BCBPT attacker share %.3f above Bitcoin %.3f; faster propagation should shrink the window", bcbpt, bitcoin)
	}
}
