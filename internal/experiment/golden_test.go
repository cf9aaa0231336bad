package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestFigure3CSVGolden pins the figure3 smoke sweep (the fleetsmoke.sh
// parameters) byte-for-byte against a checked-in golden CSV. This is the
// end-to-end determinism contract: topology bootstrap, flood relay,
// measurement and CSV rendering must all be bit-stable — across code
// changes (the flat node layout was landed under this pin) and across
// toolchains (the CI oldstable matrix leg runs it too). If an
// intentional behaviour change moves the numbers, regenerate with:
//
//	go run ./cmd/bcbpt-sim -experiment figure3 -nodes 120 -runs 5 \
//	  -replications 2 -seed 1 -csv internal/experiment/testdata/figure3_smoke_golden.csv
func TestFigure3CSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replication sweep; skipped in -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "figure3_smoke_golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Figure3Ctx(context.Background(), Options{
		Nodes:        120,
		Runs:         5,
		Replications: 2,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := fig.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("figure3 CSV diverged from golden (%d bytes vs %d): first differing region:\n%s",
			got.Len(), len(want), firstDiff(got.Bytes(), want))
	}
}

// TestFigure3CSVGoldenTraced re-runs the golden sweep with tracing
// enabled and demands the same bytes: tracing hooks observe the
// simulation, they may never perturb it. The exported JSON is then
// checked for events, so the test also pins that a traced sweep actually
// produces a trace.
func TestFigure3CSVGoldenTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replication sweep; skipped in -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "figure3_smoke_golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	fig, err := Figure3Ctx(context.Background(), Options{
		Nodes:        120,
		Runs:         5,
		Replications: 2,
		Seed:         1,
		Trace:        trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := fig.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("traced figure3 CSV diverged from golden — tracing perturbed the simulation:\n%s",
			firstDiff(got.Bytes(), want))
	}
	jf, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace JSON not exported: %v", err)
	}
	if !bytes.Contains(jf, []byte(`"traceEvents":[{`)) {
		t.Fatal("trace JSON has no events")
	}
}

// TestFigure3ChurnCSVGolden is the same sweep under the default churn
// model, pinned the same way. Departures and arrivals rewrite the DNS
// seed's registry while the floods run — Bitcoin refills and LBC long links
// draw from its ID listing, BCBPT arrivals query its geographic index — so
// this is the byte pin on how the registry behaves under mutation, which
// the churn-free golden never exercises. Regenerate with the command above
// plus -churn, into testdata/figure3_churn_smoke_golden.csv.
func TestFigure3ChurnCSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replication sweep; skipped in -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "figure3_churn_smoke_golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Figure3Ctx(context.Background(), Options{
		Nodes:        120,
		Runs:         5,
		Replications: 2,
		Seed:         1,
		ChurnOn:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := fig.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("figure3 -churn CSV diverged from golden (%d bytes vs %d): first differing region:\n%s",
			got.Len(), len(want), firstDiff(got.Bytes(), want))
	}
}

// TestFigure3ScaleDigest pins figure3 at 1000 nodes, plain and under
// churn, by the sha256 of its CSV (testdata/figure3_1000.sha256, in
// sha256sum's format). The smoke goldens above stop at 120 nodes, where an
// event queue holds a few hundred entries and a peer table a handful; this
// is the byte pin at a size where the queue holds thousands and tables
// fill and recycle. A digest cannot show what moved — rerun the
// smoke goldens for that — only that something did. Regenerate with:
//
//	go run ./cmd/bcbpt-sim -experiment figure3 -nodes 1000 -runs 20 -seed 1 -csv figure3_1000.csv
//	go run ./cmd/bcbpt-sim -experiment figure3 -nodes 1000 -runs 20 -seed 1 -churn -csv figure3_1000_churn.csv
//	sha256sum figure3_1000.csv figure3_1000_churn.csv > internal/experiment/testdata/figure3_1000.sha256
func TestFigure3ScaleDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node sweeps; skipped in -short")
	}
	requireFigure3Digest(t, 1000, 20)
}

// TestFigure3PaperScaleDigest is the same pin at the paper's 5000 nodes
// (§V.B), where a flood holds tens of thousands of events and every peer
// table of the best-connected nodes is full: what a kernel or relay change
// claiming byte identity has to pass, in place of a cmp by hand. About
// ten seconds, so it runs only with BCBPT_PAPER_SCALE=1 (make paper-digest).
// Regenerate testdata/figure3_5000.sha256 as above with -nodes 5000
// -runs 100 and the file names figure3_5000.csv, figure3_5000_churn.csv.
func TestFigure3PaperScaleDigest(t *testing.T) {
	if os.Getenv("BCBPT_PAPER_SCALE") != "1" {
		t.Skip("5000-node sweeps; set BCBPT_PAPER_SCALE=1 (make paper-digest)")
	}
	requireFigure3Digest(t, 5000, 100)
}

// requireFigure3Digest runs figure3 at seed 1, plain and under churn, and
// requires the sha256 of each CSV to be a line of
// testdata/figure3_<nodes>.sha256.
func requireFigure3Digest(t *testing.T, nodes, runs int) {
	t.Helper()
	pinned, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("figure3_%d.sha256", nodes)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		suffix string
		churn  bool
	}{
		{".csv", false},
		{"_churn.csv", true},
	} {
		fig, err := Figure3Ctx(context.Background(), Options{Nodes: nodes, Runs: runs, Seed: 1, ChurnOn: c.churn})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.New()
		if err := fig.WriteCSV(sum); err != nil {
			t.Fatal(err)
		}
		if line := fmt.Sprintf("%x  figure3_%d%s\n", sum.Sum(nil), nodes, c.suffix); !bytes.Contains(pinned, []byte(line)) {
			t.Errorf("figure3 at %d nodes diverged from the pinned digest; got\n%swant one of\n%s", nodes, line, pinned)
		}
	}
}

// firstDiff renders a small window around the first byte difference.
func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := max(0, i-60)
	end := func(s []byte) int { return min(len(s), i+60) }
	return "got:  ..." + string(a[lo:end(a)]) + "...\nwant: ..." + string(b[lo:end(b)]) + "..."
}
