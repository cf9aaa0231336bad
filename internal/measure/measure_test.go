package measure

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/latency"
	"repro/internal/p2p"
	"repro/internal/topology"
)

func buildNet(t testing.TB, n int, seed int64) (*p2p.Network, []p2p.NodeID) {
	t.Helper()
	cfg := p2p.DefaultConfig()
	cfg.Seed = seed
	net, err := p2p.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	placer := geo.DefaultPlacer()
	r := net.Streams().Stream("placement")
	ids := make([]p2p.NodeID, n)
	for i := range ids {
		ids[i] = net.AddNode(placer.Place(r)).ID()
	}
	return net, ids
}

func wireRandom(t testing.TB, net *p2p.Network, ids []p2p.NodeID) {
	t.Helper()
	proto := topology.NewRandom(net, topology.NewDNSSeed(), 0)
	if err := proto.Bootstrap(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
}

func mkTx(t testing.TB, i int) *chain.Tx {
	t.Helper()
	key, err := chain.GenerateKey(rand.New(rand.NewSource(int64(i) + 1)))
	if err != nil {
		t.Fatal(err)
	}
	return chain.Coinbase(uint64(i), 1000, key.Address())
}

// --- Distribution ---

func TestDistributionBasics(t *testing.T) {
	samples := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond,
		40 * time.Millisecond, 50 * time.Millisecond,
	}
	d := NewDistribution(samples)
	if d.N() != 5 {
		t.Errorf("N = %d", d.N())
	}
	if d.Mean() != 30*time.Millisecond {
		t.Errorf("Mean = %v, want 30ms", d.Mean())
	}
	if d.Median() != 30*time.Millisecond {
		t.Errorf("Median = %v, want 30ms", d.Median())
	}
	if d.Min() != 10*time.Millisecond || d.Max() != 50*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", d.Min(), d.Max())
	}
	// Population std of {10..50 step 10} ms = sqrt(200) ms ≈ 14.14ms.
	want := time.Duration(14.142 * float64(time.Millisecond))
	if diff := d.Std() - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("Std = %v, want ~%v", d.Std(), want)
	}
	if d.String() == "" {
		t.Error("String empty")
	}
}

func TestDistributionEmpty(t *testing.T) {
	var d Distribution
	if d.N() != 0 || d.Mean() != 0 || d.Std() != 0 || d.Median() != 0 {
		t.Error("zero distribution not empty")
	}
	if d.CDF(10) != nil || d.IQR() != 0 {
		t.Error("empty distribution produced a curve or a spread")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	d := NewDistribution([]time.Duration{0, 100 * time.Millisecond})
	if got := d.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", got)
	}
	if got := d.Percentile(0); got != 0 {
		t.Errorf("p0 = %v, want 0", got)
	}
	if got := d.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v, want 100ms", got)
	}
	if got := d.Percentile(-5); got != 0 {
		t.Errorf("p-5 = %v, want clamp to min", got)
	}
	if got := d.Percentile(150); got != 100*time.Millisecond {
		t.Errorf("p150 = %v, want clamp to max", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(v) * time.Millisecond
		}
		cdf := NewDistribution(samples).CDF(21)
		for i := 1; i < len(cdf); i++ {
			if cdf[i].Value < cdf[i-1].Value || cdf[i].Fraction <= cdf[i-1].Fraction {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestIQRIgnoresOneOutlier: the reason IQR is printed beside std. One
// 38 s sample among a hundred around 100 ms — what figure4 at seed 1 drew —
// multiplies std by more than ten and leaves the quartiles where they were.
func TestIQRIgnoresOneOutlier(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(50+i) * time.Millisecond
	}
	clean := NewDistribution(samples)
	if got, want := clean.IQR(), clean.Percentile(75)-clean.Percentile(25); got != want || got <= 0 {
		t.Fatalf("IQR = %v, want p75 - p25 = %v", got, want)
	}
	// The outlier replaces the largest sample, so every rank below it — the
	// quartiles included — holds the value it held before.
	samples[len(samples)-1] = 38 * time.Second
	dirty := NewDistribution(samples)
	if dirty.Std() <= 10*clean.Std() {
		t.Errorf("std %v -> %v: the outlier was meant to move it more than 10x", clean.Std(), dirty.Std())
	}
	if dirty.IQR() != clean.IQR() {
		t.Errorf("IQR %v -> %v: one outlier moved it", clean.IQR(), dirty.IQR())
	}
	for _, field := range []string{"std=", "iqr=", "p10=", "p90="} {
		if !strings.Contains(dirty.String(), field) {
			t.Errorf("String() = %q lacks %s", dirty.String(), field)
		}
	}
}

func TestASCIICDF(t *testing.T) {
	d1 := NewDistribution([]time.Duration{time.Millisecond, 2 * time.Millisecond})
	d2 := NewDistribution([]time.Duration{3 * time.Millisecond})
	out := ASCIICDF([]string{"a", "b"}, []Distribution{d1, d2}, 5)
	if out == "" {
		t.Fatal("empty chart")
	}
	if ASCIICDF([]string{"a"}, []Distribution{d1, d2}, 5) != "" {
		t.Error("mismatched names/dists should return empty")
	}
}

// --- MeasuringNode ---

func TestMeasureOnceRecordsAllConnections(t *testing.T) {
	net, ids := buildNet(t, 40, 1)
	wireRandom(t, net, ids)
	m, err := NewMeasuringNode(net, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	node, _ := net.Node(ids[0])
	res, err := m.MeasureOnce(context.Background(), mkTx(t, 1), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 0 {
		t.Errorf("missing connections: %v", res.Missing)
	}
	if len(res.Deltas) != node.NumPeers() {
		t.Errorf("measured %d of %d connections", len(res.Deltas), node.NumPeers())
	}
	for id, dt := range res.Deltas {
		if dt < 0 {
			t.Errorf("connection %d has negative Δt %v", id, dt)
		}
	}
	// At least one connection (the first hop) should be strictly > 0 and
	// small; all deltas should be bounded by the deadline.
	for _, dt := range res.Deltas {
		if dt > time.Minute {
			t.Errorf("Δt %v exceeds deadline", dt)
		}
	}
}

func TestMeasuringNodeDoesNotBroadcastItself(t *testing.T) {
	// Fig. 2: m sends to ONE connection only. The direct recipient gets
	// the tx at its verification delay; others strictly later via relay.
	net, ids := buildNet(t, 30, 2)
	wireRandom(t, net, ids)
	m, err := NewMeasuringNode(net, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.MeasureOnce(context.Background(), mkTx(t, 2), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	deltas := res.All()
	if len(deltas) < 2 {
		t.Skip("measuring node has one connection; nothing to compare")
	}
	// If m broadcast to everyone, all deltas would be one-hop and nearly
	// equal; via single-injection relay the spread must be substantial.
	d := NewDistribution(deltas)
	if d.Max() < d.Min()*2 && d.Max()-d.Min() < 5*time.Millisecond {
		t.Errorf("delta spread too tight (min=%v max=%v); did m broadcast?", d.Min(), d.Max())
	}
}

func TestCampaignPoolsRuns(t *testing.T) {
	net, ids := buildNet(t, 30, 3)
	wireRandom(t, net, ids)
	m, err := NewMeasuringNode(net, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	node, _ := net.Node(ids[0])
	const runs = 10
	res, err := m.RunContext(context.Background(), Campaign{
		Runs:     runs,
		Deadline: time.Minute,
		MakeTx:   func(i int) *chain.Tx { return mkTx(t, 100+i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := runs * node.NumPeers()
	if res.Dist.N()+res.Lost != want {
		t.Errorf("samples %d + lost %d != %d", res.Dist.N(), res.Lost, want)
	}
	if res.Dist.Mean() <= 0 {
		t.Error("non-positive mean Δt")
	}
}

// TestCampaignIsItsInjectionsPooled: a campaign result is nothing but its
// injections' samples. On two identically built networks, RunContext's Dist
// equals NewDistribution over the MeasureOnce(...).All() values of the same
// injections made by hand, and its Lost equals the sum of their Missing —
// the attribution the result no longer carries run by run. The deadline is
// short enough that some connections miss it, so Lost is exercised too.
func TestCampaignIsItsInjectionsPooled(t *testing.T) {
	const (
		runs     = 8
		deadline = 150 * time.Millisecond
	)
	measuring := func() (*p2p.Network, *MeasuringNode) {
		net, ids := buildNet(t, 60, 13)
		wireRandom(t, net, ids)
		m, err := NewMeasuringNode(net, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		return net, m
	}
	makeTx := func(i int) *chain.Tx { return mkTx(t, 500+i) }

	_, m := measuring()
	res, err := m.RunContext(context.Background(), Campaign{Runs: runs, Deadline: deadline, MakeTx: makeTx})
	if err != nil {
		t.Fatal(err)
	}

	net, byHand := measuring()
	var samples []time.Duration
	lost := 0
	for i := 0; i < runs; i++ {
		net.ResetInventory()
		run, err := byHand.MeasureOnce(context.Background(), makeTx(i), deadline)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, run.All()...)
		lost += len(run.Missing)
	}
	if want := NewDistribution(samples); !res.Dist.Equal(want) {
		t.Errorf("campaign distribution %v differs from its injections pooled by hand %v", res.Dist, want)
	}
	if res.Lost != lost {
		t.Errorf("Lost = %d, want the %d Missing entries of the injections", res.Lost, lost)
	}
	if res.Dist.N() == 0 || res.Lost == 0 {
		t.Errorf("n = %d, lost = %d: the fixture is meant to produce both samples and losses", res.Dist.N(), res.Lost)
	}
}

func TestCampaignValidation(t *testing.T) {
	net, ids := buildNet(t, 5, 4)
	wireRandom(t, net, ids)
	m, err := NewMeasuringNode(net, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(context.Background(), Campaign{Runs: 0, MakeTx: func(int) *chain.Tx { return mkTx(t, 0) }}); err == nil {
		t.Error("accepted Runs=0")
	}
	if _, err := m.RunContext(context.Background(), Campaign{Runs: 1}); err == nil {
		t.Error("accepted nil MakeTx")
	}
	if _, err := NewMeasuringNode(net, 9999); err == nil {
		t.Error("accepted unknown node")
	}
}

// TestMeasureOnceRefusedInjection: a transaction the first connection
// refuses — here a spend of an output that an earlier flood already spent —
// never enters the network. MeasureOnce must say so, not return a run in
// which every connection missed it.
func TestMeasureOnceRefusedInjection(t *testing.T) {
	net, ids := buildNet(t, 30, 7)
	wireRandom(t, net, ids)
	m, err := NewMeasuringNode(net, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	spend := func(value chain.Amount) *chain.Tx {
		return &chain.Tx{
			Version: 1,
			Inputs:  []chain.TxIn{{PrevOut: chain.Outpoint{TxID: mkTx(t, 1).ID()}}},
			Outputs: []chain.TxOut{{Value: value, To: chain.Address{1}}},
		}
	}
	origin, _ := net.Node(ids[1])
	if err := origin.SubmitTx(spend(1)); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := m.MeasureOnce(context.Background(), spend(2), time.Minute)
	if err == nil {
		t.Fatalf("conflicting spend measured: %d samples, %d missing", len(res.Deltas), len(res.Missing))
	}
	if !strings.Contains(err.Error(), "injection 0") {
		t.Errorf("error %q does not name the injection", err)
	}
}

func TestMeasureOnceNoConnections(t *testing.T) {
	net, ids := buildNet(t, 2, 5)
	m, err := NewMeasuringNode(net, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MeasureOnce(context.Background(), mkTx(t, 1), time.Second); err != ErrNoConnections {
		t.Errorf("error = %v, want ErrNoConnections", err)
	}
}

// --- Crawler ---

// rttFloor is the least round trip the latency model can measure over a
// link of baseline base: each leg is half a sample of at least
// base·(1 − 0.06·4), the Gaussian wobble (6% of base) truncated at 4σ
// (latency.maxWobbleSigma). A few nanoseconds of slack cover the
// truncation of each leg and the estimator's round trip through float
// milliseconds. Queuing and transmission only add to it.
func rttFloor(base time.Duration) time.Duration {
	return time.Duration(0.76*float64(base)) - 4
}

// rttEstimators folds every round trip the vantage takes in from now on
// into an estimator per target, through a hook on Network.OnRTT that
// chains the one attached before it. A reader folds the vantage's landed
// pongs (p2p.Node.FoldPongs) before it reads them; Crawl does.
func rttEstimators(net *p2p.Network, vantage p2p.NodeID) map[p2p.NodeID]*latency.Estimator {
	ests := map[p2p.NodeID]*latency.Estimator{}
	prev := net.OnRTT
	net.OnRTT = func(prober *p2p.Node, target p2p.NodeID, rtt time.Duration) {
		if prev != nil {
			prev(prober, target, rtt)
		}
		if prober.ID() != vantage {
			return
		}
		if ests[target] == nil {
			ests[target] = &latency.Estimator{}
		}
		ests[target].Observe(rtt)
	}
	return ests
}

// requireRTTFloor checks every target's smallest sample at the vantage,
// from the estimators rttEstimators kept, against rttFloor of the pair's
// baseline, and returns how many fell below the baseline itself.
func requireRTTFloor(t *testing.T, net *p2p.Network, ests map[p2p.NodeID]*latency.Estimator, vantage p2p.NodeID, targets []p2p.NodeID) (belowBase int) {
	t.Helper()
	for _, id := range targets {
		if id == vantage {
			continue
		}
		est, ok := ests[id]
		base, _ := net.BaseRTT(vantage, id)
		if !ok {
			t.Fatalf("no estimator for target %d", id)
		}
		if est.Min() < rttFloor(base) {
			t.Fatalf("target %d: smallest RTT %v below the model's floor %v (base %v)", id, est.Min(), rttFloor(base), base)
		}
		if est.Min() < base {
			belowBase++
		}
	}
	return belowBase
}

func TestCrawlerCollectsRTTs(t *testing.T) {
	net, ids := buildNet(t, 50, 6)
	c, err := NewCrawler(net, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	// A hook already attached hears every sample too, and is back in
	// place once the crawl returns.
	var chained int
	net.OnRTT = func(*p2p.Node, p2p.NodeID, time.Duration) { chained++ }
	ests := rttEstimators(net, ids[0])
	res, err := c.Crawl(4, 10*time.Millisecond, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Every target answered: requireRTTFloor finds an estimator for each.
	requireRTTFloor(t, net, ests, ids[0], ids)
	if net.OnRTT == nil || chained != res.RTTs.N() {
		t.Errorf("the hook attached before the crawl heard %d of %d samples, and is attached after it: %v", chained, res.RTTs.N(), net.OnRTT != nil)
	}
	if res.Reachable != 50 {
		t.Errorf("Reachable = %d, want 50", res.Reachable)
	}
	want := 49 * 4
	if res.RTTs.N() != want {
		t.Errorf("observed %d RTTs, want %d", res.RTTs.N(), want)
	}
	if res.RTTs.Min() <= 0 {
		t.Error("non-positive RTT sample")
	}
	// Heavy-tailed world: p90 should exceed median substantially.
	if res.RTTs.Percentile(90) <= res.RTTs.Median() {
		t.Error("RTT distribution has no tail")
	}
	// The pooled distribution at this seed, pinned: how the crawl sends
	// its pings and collects their round trips may change, what it
	// measures may not.
	const wantDist = "n=196 mean=135.018ms std=73.252ms iqr=148.022ms p10=48.35ms p50=141.766ms p90=226.804ms max=382.267ms"
	if got := res.RTTs.String(); got != wantDist {
		t.Errorf("pooled RTTs = %s, want %s", got, wantDist)
	}
	h := sha256.New()
	for _, v := range res.RTTs.Samples() {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
	}
	const wantSum = "ccea55eb2b07835f266c2fe88555d547662df7d69d2c447d01bd60c833b7c0eb"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSum {
		t.Errorf("sha256 of sorted RTTs = %s, want %s", got, wantSum)
	}
}

// TestCrawlerRTTFloor: a measured round trip can fall below the pair's
// BaseRTT — the congestion wobble is symmetric — but never below the floor
// the wobble's truncation sets (rttFloor), at every seed. Not vacuous: at
// each of these seeds a good share of the targets' smallest samples fall
// below the baseline.
func TestCrawlerRTTFloor(t *testing.T) {
	for _, seed := range []int64{6, 7, 8} {
		net, ids := buildNet(t, 300, seed)
		c, err := NewCrawler(net, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		ests := rttEstimators(net, ids[0])
		if _, err := c.Crawl(4, 10*time.Millisecond, time.Minute); err != nil {
			t.Fatal(err)
		}
		if below := requireRTTFloor(t, net, ests, ids[0], ids); below < 30 {
			t.Errorf("seed %d: %d of %d targets measured below BaseRTT, want the wobble to show", seed, below, len(ids)-1)
		}
	}
}

// TestCrawlerMeasuresTheNetwork pins the crawl's pacing at the paper's
// scale (§V.A: about 5000 peers, 20,000 pings): its median round trip lies
// within 5 % of the median BaseRTT from the vantage to its targets, at
// seeds 1–3. Sent in one burst per round, the pings queued on the
// vantage's uplink, and the median read about three times the baseline's.
func TestCrawlerMeasuresTheNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("three 5000-node crawls; skipped in -short")
	}
	for _, seed := range []int64{1, 2, 3} {
		net, ids := buildNet(t, 5000, seed)
		c, err := NewCrawler(net, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Crawl(4, 50*time.Millisecond, 10*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if res.RTTs.N() != 4*(len(ids)-1) {
			t.Fatalf("seed %d: %d round trips, want %d", seed, res.RTTs.N(), 4*(len(ids)-1))
		}
		bases := make([]time.Duration, 0, len(ids)-1)
		for _, id := range ids[1:] {
			base, _ := net.BaseRTT(ids[0], id)
			bases = append(bases, base)
		}
		crawl, base := res.RTTs.Median(), NewDistribution(bases).Median()
		if ratio := float64(crawl) / float64(base); ratio < 0.95 || ratio > 1.05 {
			t.Errorf("seed %d: crawl p50 %v against BaseRTT p50 %v (ratio %.3f), want within 5%%", seed, crawl, base, ratio)
		}
	}
}

func TestCrawlerValidation(t *testing.T) {
	net, _ := buildNet(t, 3, 7)
	if _, err := NewCrawler(net, 999); err == nil {
		t.Error("accepted unknown vantage")
	}
	c, err := NewCrawler(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Crawl(0, time.Millisecond, time.Second); err == nil {
		t.Error("accepted pingsPer=0")
	}
}

func TestWriteCDFCSV(t *testing.T) {
	d1 := NewDistribution([]time.Duration{time.Millisecond, 3 * time.Millisecond})
	d2 := NewDistribution([]time.Duration{2 * time.Millisecond})
	var buf strings.Builder
	if err := WriteCDFCSV(&buf, []string{"a", "b"}, []Distribution{d1, d2}, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "series,fraction,delay_ms\n") {
		t.Errorf("missing header: %q", out[:40])
	}
	// 2 series x 5 points + header = 11 lines.
	if got := strings.Count(out, "\n"); got != 11 {
		t.Errorf("line count = %d, want 11", got)
	}
	if err := WriteCDFCSV(&buf, []string{"a"}, []Distribution{d1, d2}, 5); err == nil {
		t.Error("mismatched names accepted")
	}
}

func TestMergeDistributionsOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	mk := func(n int) Distribution {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(r.Intn(1_000_000))
		}
		return NewDistribution(s)
	}
	a, b, c := mk(13), mk(1), mk(40)
	abc := MergeDistributions(a, b, c)
	cba := MergeDistributions(c, b, a)
	if !abc.Equal(cba) {
		t.Errorf("merge order changed result: %v vs %v", abc, cba)
	}
	if abc.N() != a.N()+b.N()+c.N() {
		t.Errorf("merged N = %d, want %d", abc.N(), a.N()+b.N()+c.N())
	}
	// Merging must equal building the distribution from the pooled
	// samples directly.
	pooled := NewDistribution(append(append(a.Samples(), b.Samples()...), c.Samples()...))
	if !abc.Equal(pooled) {
		t.Errorf("merge differs from pooled build: %v vs %v", abc, pooled)
	}
	if !MergeDistributions().Equal(NewDistribution(nil)) {
		t.Error("empty merge not the zero distribution")
	}
}

// TestMergeDistributionsMatchesPooledBuild is the merge's defining
// property: over k random shards — empty ones and duplicate-heavy ones
// included — merging the shards' sorted samples Equals building one
// distribution from the concatenation, mean and std bits included, and
// leaves the inputs untouched.
func TestMergeDistributionsMatchesPooledBuild(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for _, k := range []int{1, 2, 7} {
		for trial := 0; trial < 200; trial++ {
			shards := make([]Distribution, k)
			var pooled []time.Duration
			for i := range shards {
				n, spread := r.Intn(40), int64(time.Second)
				switch r.Intn(4) {
				case 0:
					n = 0 // an empty shard
				case 1:
					spread = 3 // nearly every sample is a duplicate
				}
				s := make([]time.Duration, n)
				for j := range s {
					s[j] = time.Duration(r.Int63n(spread))
				}
				shards[i] = NewDistribution(s)
				pooled = append(pooled, s...)
			}
			before := make([][]time.Duration, k)
			for i, d := range shards {
				before[i] = d.Samples()
			}
			got, want := MergeDistributions(shards...), NewDistribution(pooled)
			if !got.Equal(want) {
				t.Fatalf("k=%d trial %d: merge %v differs from pooled build %v", k, trial, got, want)
			}
			for i, d := range shards {
				if !slices.Equal(d.Samples(), before[i]) {
					t.Fatalf("k=%d trial %d: merge modified shard %d", k, trial, i)
				}
			}
		}
	}
}

func TestMergeCampaignResults(t *testing.T) {
	net, ids := buildNet(t, 20, 9)
	wireRandom(t, net, ids)
	m, err := NewMeasuringNode(net, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	run := func(base int) CampaignResult {
		res, err := m.RunContext(context.Background(), Campaign{
			Runs:     3,
			Deadline: time.Minute,
			MakeTx:   func(i int) *chain.Tx { return mkTx(t, base+i) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(100), run(200)
	merged, err := MergeCampaignResults(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Dist.N(), a.Dist.N()+b.Dist.N(); got != want || want == 0 {
		t.Errorf("N = %d, want %d", got, want)
	}
	if merged.Lost != a.Lost+b.Lost {
		t.Errorf("Lost = %d, want %d", merged.Lost, a.Lost+b.Lost)
	}
	if !merged.Dist.Equal(MergeDistributions(a.Dist, b.Dist)) {
		t.Error("merged distribution does not pool shard samples")
	}
}

func TestRunContextCancelKeepsPartial(t *testing.T) {
	net, ids := buildNet(t, 20, 11)
	wireRandom(t, net, ids)
	m, err := NewMeasuringNode(net, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runsDone := 0
	res, err := m.RunContext(ctx, Campaign{
		Runs:     10,
		Deadline: time.Minute,
		MakeTx: func(i int) *chain.Tx {
			runsDone = i
			if i == 2 {
				cancel()
			}
			return mkTx(t, 300+i)
		},
	})
	if err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	// Cancel fired while building run 2's tx, so runs 0..1 completed and
	// run 2 was cut off mid-flood: a half-measured run contributes no
	// samples (it would bias the pool towards its fastest connections).
	node, _ := net.Node(ids[0])
	if got, want := res.Dist.N()+res.Lost, 2*node.NumPeers(); got != want || runsDone != 2 {
		t.Errorf("partial result accounts for %d connection-runs (last MakeTx %d), want %d from 2 completed runs", got, runsDone, want)
	}
	if res.Dist.N() == 0 {
		t.Error("partial result lost its samples")
	}
}
