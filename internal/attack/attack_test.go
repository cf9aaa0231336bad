package attack

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/p2p"
	"repro/internal/topology"
)

// buildBCBPTWorld bootstraps a BCBPT network for attack analysis.
func buildBCBPTWorld(t testing.TB, n int, seed int64, dt time.Duration) (*p2p.Network, *core.BCBPT, []p2p.NodeID) {
	t.Helper()
	pcfg := p2p.DefaultConfig()
	pcfg.Seed = seed
	net, err := p2p.NewNetwork(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	placer := geo.DefaultPlacer()
	r := net.Streams().Stream("placement")
	ids := make([]p2p.NodeID, n)
	for i := range ids {
		ids[i] = net.AddNode(placer.Place(r)).ID()
	}
	cfg := core.DefaultConfig()
	cfg.Threshold = dt
	cfg.JoinStagger = 20 * time.Millisecond
	cfg.DecisionSlack = 500 * time.Millisecond
	proto, err := core.New(net, topology.NewDNSSeed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.Bootstrap(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	if err := net.RunUntil(context.Background(), proto.BootstrapDeadline(n)); err != nil {
		t.Fatal(err)
	}
	return net, proto, ids
}

func TestEclipseValidation(t *testing.T) {
	net, proto, ids := buildBCBPTWorld(t, 30, 1, 25*time.Millisecond)
	if _, err := Eclipse(net, proto, ids[0], EclipseSpec{Adversaries: 0}); err == nil {
		t.Error("accepted zero adversaries")
	}
	if _, err := Eclipse(net, proto, 9999, EclipseSpec{Adversaries: 1}); err == nil {
		t.Error("accepted unknown victim")
	}
}

func TestEclipsePenetratesVictimCluster(t *testing.T) {
	net, proto, ids := buildBCBPTWorld(t, 80, 2, 25*time.Millisecond)
	victim := ids[0]
	res, err := Eclipse(net, proto, victim, EclipseSpec{
		Adversaries:  20,
		JitterMeters: 5_000,
		SettleTime:   5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("eclipse: %s", res)
	if res.AdversariesInCluster == 0 {
		t.Error("no adversaries penetrated the victim cluster despite co-location")
	}
	if res.TotalPeers == 0 {
		t.Error("victim has no connections after turnover")
	}
	if res.AdversarialPeers == 0 {
		t.Error("victim has no adversarial connections despite a flooded cluster")
	}
	if res.Fraction() < 0 || res.Fraction() > 1 {
		t.Errorf("Fraction = %v out of range", res.Fraction())
	}
	if res.String() == "" {
		t.Error("String empty")
	}
}

func TestEclipseExposureGrowsWithBudget(t *testing.T) {
	// §V.C: concentrating more bad peers in a small cluster raises the
	// chance the victim selects them.
	frac := func(budget int) float64 {
		net, proto, ids := buildBCBPTWorld(t, 60, 3, 25*time.Millisecond)
		res, err := Eclipse(net, proto, ids[0], EclipseSpec{
			Adversaries:  budget,
			JitterMeters: 5_000,
			SettleTime:   5 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Fraction()
	}
	small := frac(2)
	large := frac(40)
	t.Logf("bad fraction: budget=2 -> %.2f, budget=40 -> %.2f", small, large)
	if large <= small {
		t.Errorf("exposure did not grow with budget: %.2f -> %.2f", small, large)
	}
}

func TestPartitionAnalysis(t *testing.T) {
	net, proto, _ := buildBCBPTWorld(t, 100, 4, 25*time.Millisecond)
	res, err := Partition(net, proto)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("partition: %s", res)
	if res.Clusters < 2 {
		t.Skip("single cluster; nothing to partition")
	}
	if res.Isolated != 0 {
		t.Errorf("%d clusters already isolated; long links failed", res.Isolated)
	}
	if res.MinCut <= 0 {
		t.Errorf("MinCut = %d, want > 0", res.MinCut)
	}
	if res.MeanCut < float64(res.MinCut) {
		t.Errorf("MeanCut %.1f < MinCut %d", res.MeanCut, res.MinCut)
	}
	if res.String() == "" {
		t.Error("String empty")
	}
}

func TestPartitionNoClusters(t *testing.T) {
	pcfg := p2p.DefaultConfig()
	net, err := p2p.NewNetwork(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.New(net, topology.NewDNSSeed(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(net, proto); err == nil {
		t.Error("accepted empty network")
	}
}

func TestSweepTable(t *testing.T) {
	out := SweepTable([]SweepResult{
		{Adversaries: 2, Trials: 3, MeanBadFrac: 0.1, Eclipses: 0},
		{Adversaries: 20, Trials: 3, MeanBadFrac: 0.8, Eclipses: 2},
	})
	if out == "" {
		t.Error("empty table")
	}
}
