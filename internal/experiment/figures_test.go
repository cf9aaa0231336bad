package experiment

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/measure"
)

// tinyOpts keeps the full figure pipelines quick enough for unit tests.
func tinyOpts() Options {
	return Options{Nodes: 50, Runs: 5, Seed: 77, Deadline: 30 * time.Second}
}

func TestFigure3Pipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-network pipeline")
	}
	fig, err := Figure3Ctx(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(fig.Series))
	}
	names := map[string]bool{}
	for _, s := range fig.Series {
		names[s.Name] = true
		if s.Dist.N() == 0 {
			t.Errorf("series %s has no samples", s.Name)
		}
	}
	for _, want := range []string{"bitcoin", "lbc", "bcbpt-25ms"} {
		if !names[want] {
			t.Errorf("missing series %s", want)
		}
	}
	out := fig.String()
	if !strings.Contains(out, "Fig. 3") || !strings.Contains(out, "bitcoin") {
		t.Error("figure rendering incomplete")
	}
}

// TestWriteCSVFileReportsFailure: a CSV that did not land must come back
// as an error — the frontends print "(CDF data written to …)" on nil alone.
// A directory fails at create; /dev/full, where the host has it, accepts
// the create and fails the write.
func TestWriteCSVFileReportsFailure(t *testing.T) {
	fig := FigureResult{Title: "t", Series: []Series{
		{Name: "a", Dist: measure.NewDistribution([]time.Duration{time.Millisecond, 3 * time.Millisecond})},
	}}
	dir := t.TempDir()
	path := filepath.Join(dir, "fig.csv")
	if err := fig.WriteCSVFile(path); err != nil {
		t.Fatalf("writable target: %v", err)
	}
	var want bytes.Buffer
	if err := fig.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("file holds %q (%v), want WriteCSV's %q", got, err, want.Bytes())
	}

	if err := fig.WriteCSVFile(dir); err == nil {
		t.Error("a directory path was reported as written")
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := fig.WriteCSVFile("/dev/full"); err == nil {
			t.Error("/dev/full was reported as written")
		}
	}
}

func TestFigure4Pipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-network pipeline")
	}
	fig, err := Figure4Ctx(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3 thresholds", len(fig.Series))
	}
	for _, s := range fig.Series {
		if !strings.HasPrefix(s.Name, "bcbpt-") {
			t.Errorf("unexpected series name %s", s.Name)
		}
	}
}

func TestThresholdSweepCustom(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-network pipeline")
	}
	fig, err := ThresholdSweepCtx(context.Background(), tinyOpts(), []time.Duration{40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 || fig.Series[0].Name != "bcbpt-40ms" {
		t.Fatalf("unexpected sweep series: %+v", fig.Series)
	}
}

func TestVarianceVsConnectionsPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-network pipeline")
	}
	o := tinyOpts()
	res, err := VarianceVsConnectionsCtx(context.Background(), o, []int{6, 12})
	if err != nil {
		t.Fatal(err)
	}
	// 2 protocols x 2 connection counts.
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Std < 0 || p.IQR <= 0 || p.Mean <= 0 {
			t.Errorf("bad point %+v", p)
		}
	}
	if table := res.String(); !strings.Contains(table, "connections") || !strings.Contains(table, "iqr(Δt)") {
		t.Error("variance table rendering incomplete")
	}
}

// TestVarianceSweepWritesTrace: Options.Trace exports the variance sweep's
// first campaign, replication 0, as it does a figure's.
func TestVarianceSweepWritesTrace(t *testing.T) {
	o := tinyOpts()
	o.Trace = filepath.Join(t.TempDir(), "variance.json")
	if _, err := VarianceVsConnectionsCtx(context.Background(), o, []int{6}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(o.Trace); err != nil {
		t.Errorf("no trace: %v", err)
	} else if fi.Size() == 0 {
		t.Errorf("trace %s is empty", o.Trace)
	}
}

func TestOverheadPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-network pipeline")
	}
	res, err := OverheadCtx(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
	var bitcoin, bcbpt OverheadResult
	for _, r := range res {
		switch r.Protocol {
		case "bitcoin":
			bitcoin = r
		case "bcbpt":
			bcbpt = r
		}
	}
	if bcbpt.PingMsgs <= bitcoin.PingMsgs {
		t.Errorf("bcbpt pings %d <= bitcoin %d", bcbpt.PingMsgs, bitcoin.PingMsgs)
	}
	if bcbpt.PingMsgsPerNode <= 0 {
		t.Error("per-node ping rate missing")
	}
	if bcbpt.CampaignMsgs == 0 || bitcoin.CampaignMsgs == 0 {
		t.Error("campaign traffic not measured")
	}
}

func TestBuildRelayAndLossPlumbing(t *testing.T) {
	// Spec.LossProb must reach the p2p config.
	b, err := Build(context.Background(), Spec{Nodes: 10, Seed: 3, Protocol: ProtoBitcoin, LossProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Net.Config().LossProb; got != 0.1 {
		t.Errorf("LossProb = %v, want 0.1", got)
	}
}

func TestDefaultChurnBalances(t *testing.T) {
	for _, n := range []int{100, 1000, 5000} {
		m := defaultChurn(n)
		if err := m.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Arrival rate should roughly equal departure rate n/meanSession.
		meanSession := 1.5 * float64(m.SessionScale)
		wantGap := time.Duration(meanSession / float64(n))
		ratio := float64(m.MeanArrival) / float64(wantGap)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("n=%d: arrival gap %v, want ~%v", n, m.MeanArrival, wantGap)
		}
	}
}
