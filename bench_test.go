// Package repro_test is the benchmark harness: one benchmark per figure
// and claim in the paper's evaluation, plus the ablations called out in
// DESIGN.md §5. Each benchmark builds the relevant network(s), runs the
// measuring-node campaign, and reports the figures' headline metrics as
// custom benchmark units (median-ms, std-ms) alongside wall-clock cost.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one figure at larger scale with cmd/bcbpt-sim.
package repro_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/topology"
)

// benchOpts is the shared scale for benchmark runs: large enough that the
// paper's orderings are stable, small enough to iterate.
func benchOpts(seed int64) experiment.Options {
	return experiment.Options{
		Nodes:    300,
		Runs:     40,
		Seed:     seed,
		Deadline: 2 * time.Minute,
	}
}

// fastBCBPT shortens bootstrap pacing (results are threshold-driven, not
// pacing-driven).
func fastBCBPT(dt time.Duration) core.Config {
	cfg := core.DefaultConfig()
	cfg.Threshold = dt
	cfg.JoinStagger = 20 * time.Millisecond
	cfg.DecisionSlack = 500 * time.Millisecond
	return cfg
}

// runCampaign measures one network through the campaign engine (a
// single-replication campaign reproduces the direct Build+Campaign path
// bit for bit), reporting distribution metrics on b.
func runCampaign(b *testing.B, spec experiment.Spec, o experiment.Options) measure.Distribution {
	b.Helper()
	res, err := experiment.NewRunner(1).RunCampaign(context.Background(), experiment.CampaignSpec{
		Name:     "bench",
		Spec:     spec,
		Runs:     o.Runs,
		Deadline: o.Deadline,
	})
	if err != nil {
		b.Fatalf("campaign: %v", err)
	}
	return res.Dist
}

func reportDist(b *testing.B, prefix string, d measure.Distribution) {
	b.Helper()
	b.ReportMetric(float64(d.Median())/1e6, prefix+"-p50-ms")
	b.ReportMetric(float64(d.Std())/1e6, prefix+"-std-ms")
}

// --- Fig. 3: Bitcoin vs LBC vs BCBPT (dt = 25ms) ---

func BenchmarkFigure3Bitcoin(b *testing.B) {
	o := benchOpts(1)
	for i := 0; i < b.N; i++ {
		d := runCampaign(b, experiment.Spec{
			Nodes: o.Nodes, Seed: o.Seed, Protocol: experiment.ProtoBitcoin,
		}, o)
		reportDist(b, "bitcoin", d)
	}
}

func BenchmarkFigure3LBC(b *testing.B) {
	o := benchOpts(1)
	for i := 0; i < b.N; i++ {
		d := runCampaign(b, experiment.Spec{
			Nodes: o.Nodes, Seed: o.Seed, Protocol: experiment.ProtoLBC,
		}, o)
		reportDist(b, "lbc", d)
	}
}

func BenchmarkFigure3BCBPT(b *testing.B) {
	o := benchOpts(1)
	for i := 0; i < b.N; i++ {
		d := runCampaign(b, experiment.Spec{
			Nodes: o.Nodes, Seed: o.Seed, Protocol: experiment.ProtoBCBPT,
			BCBPT: fastBCBPT(25 * time.Millisecond),
		}, o)
		reportDist(b, "bcbpt25", d)
	}
}

// --- Engine: serial vs parallel full-Figure-3 generation ---
//
// The same work queue — three series × two replications, fast BCBPT
// pacing — run once on a one-worker pool and once on a GOMAXPROCS pool.
// On ≥ 2 cores the parallel run beats the serial run wall-clock; results
// are bit-identical either way (see TestEngineDeterministicAcrossWorkerCounts).

func figure3EngineCampaigns(o experiment.Options) []experiment.CampaignSpec {
	specFor := func(kind experiment.ProtocolKind, cfg core.Config) experiment.Spec {
		return experiment.Spec{Nodes: o.Nodes, Seed: o.Seed, Protocol: kind, BCBPT: cfg}
	}
	return []experiment.CampaignSpec{
		{Name: "bitcoin", Spec: specFor(experiment.ProtoBitcoin, core.Config{}),
			Replications: o.Replications, Runs: o.Runs, Deadline: o.Deadline},
		{Name: "lbc", Spec: specFor(experiment.ProtoLBC, core.Config{}),
			Replications: o.Replications, Runs: o.Runs, Deadline: o.Deadline},
		{Name: "bcbpt-25ms", Spec: specFor(experiment.ProtoBCBPT, fastBCBPT(25*time.Millisecond)),
			Replications: o.Replications, Runs: o.Runs, Deadline: o.Deadline},
	}
}

func benchFigure3Engine(b *testing.B, workers int) {
	o := benchOpts(1)
	o.Nodes = 200
	o.Runs = 25
	o.Replications = 2
	campaigns := figure3EngineCampaigns(o)
	r := experiment.NewRunner(workers)
	for i := 0; i < b.N; i++ {
		outcomes, err := r.Sweep(context.Background(), campaigns)
		if err != nil {
			b.Fatalf("sweep: %v", err)
		}
		for _, oc := range outcomes {
			if oc.Result.Dist.N() == 0 {
				b.Fatalf("series %s empty", oc.Name)
			}
		}
		b.ReportMetric(float64(outcomes[2].Result.Dist.Median())/1e6, "bcbpt-p50-ms")
	}
	b.ReportMetric(float64(workers), "workers")
}

func BenchmarkFigure3EngineSerial(b *testing.B) { benchFigure3Engine(b, 1) }

func BenchmarkFigure3EngineParallel(b *testing.B) {
	benchFigure3Engine(b, runtime.GOMAXPROCS(0))
}

// --- Tentpole: serial vs sharded single-network build ---
//
// One 2000-node BCBPT build, once with the sharded phases pinned to a
// single worker and once spread over GOMAXPROCS. Placement and per-joiner
// candidate ranking shard across cores; together they are a little under
// half of a build (the serial probe/join event run is the rest), so the
// sharded build tops out near 1.8x — while TestBuildShardedDeterminism
// proves the two produce bit-identical networks.

func benchBuild(b *testing.B, workers int) {
	cfg := fastBCBPT(25 * time.Millisecond)
	for i := 0; i < b.N; i++ {
		built, err := experiment.Build(context.Background(), experiment.Spec{
			Nodes:        2000,
			Seed:         1,
			Protocol:     experiment.ProtoBCBPT,
			BCBPT:        cfg,
			BuildWorkers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if built.BCBPT.NumClustered() != 2000 {
			b.Fatalf("bootstrap clustered %d of 2000", built.BCBPT.NumClustered())
		}
		built.Close()
	}
	b.ReportMetric(float64(workers), "workers")
}

func BenchmarkBuildSerial(b *testing.B)  { benchBuild(b, 1) }
func BenchmarkBuildSharded(b *testing.B) { benchBuild(b, runtime.GOMAXPROCS(0)) }

// BenchmarkRecommend3000 is the build's ranking kernel on its own: one
// DNSSeed.Recommend per op over a 3000-node registry placed like a build
// places it, each node in turn asking for the 64 nearest (Build's
// 4 x Candidates). dist-evals/op is how many great-circle distances a query
// evaluates — the index's pruning, free of host noise; the full-sort
// Recommend this replaced evaluated all 2999.
func BenchmarkRecommend3000(b *testing.B) {
	const n, k = 3000, 64
	locs := geo.DefaultPlacer().PlaceN(rand.New(rand.NewSource(1)), n)
	dns := topology.NewDNSSeed()
	for i, loc := range locs {
		dns.Register(p2p.NodeID(i+1), loc)
	}
	dists, chords := 0, 0
	for i, loc := range locs {
		dn, cn := dns.RecommendCost(p2p.NodeID(i+1), loc, k)
		dists, chords = dists+dn, chords+cn
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := dns.Recommend(p2p.NodeID(i%n+1), locs[i%n], k); len(got) != k {
			b.Fatalf("Recommend returned %d of %d", len(got), k)
		}
	}
	b.ReportMetric(float64(dists)/n, "dist-evals/op")
	b.ReportMetric(float64(chords)/n, "chord-evals/op")
}

// --- Arena event kernel ---
//
// A steady-state workload — a rolling window of scheduled events with a
// 25% cancellation rate, dispatched in batches, with a place reserved and
// asked after beside every event (Reserve, Passed: what a flood does for the
// INVs it does not queue). Run with -benchmem: the
// arena kernel must report 0 allocs/op after warm-up; benchdiff.sh flags
// any allocs/op regression here. (The pre-arena kernel it was once paired
// with is the differential oracle in internal/sim's tests.)

func BenchmarkSchedulerArena(b *testing.B) {
	s := sim.NewScheduler()
	fn := func() {}
	// Warm to the rolling window's high-water mark so the arena kernel's
	// steady state is measured, not its growth phase.
	for i := 0; i < 8192; i++ {
		s.After(time.Duration(i%1000)*time.Microsecond, fn)
	}
	_, _ = s.RunN(4096)
	b.ReportAllocs()
	b.ResetTimer()
	var pending [4]sim.Handle
	passed := 0
	for i := 0; i < b.N; i++ {
		h := s.After(time.Duration(i%1000)*time.Microsecond, fn)
		if s.Passed(s.Reserve(time.Duration(i%1000) * time.Microsecond)) {
			passed++
		}
		if i%4 == 3 {
			// Cancel one in-flight event per four scheduled: flood-like
			// cancellation pressure (timeouts, superseded probes).
			s.Cancel(pending[i%len(pending)])
		}
		pending[i%len(pending)] = h
		if s.Len() > 8192 {
			_, _ = s.RunN(4096)
		}
	}
	b.StopTimer()
	_ = s.Run()
	if passed != 0 {
		b.Fatalf("%d places had passed as they were reserved", passed)
	}
}

// --- Flood hot path ---
//
// One 2000-node network flooded through the measuring-node methodology,
// one injection per iteration with inventory reset in between — the inner
// loop of every campaign. Run with -benchmem: messages in flight are
// by-value records in the network's arena, scheduled as indexed events,
// and inventory resets are a generation bump, so steady-state allocs/op
// here is the flood's allocation budget and benchdiff.sh flags
// regressions (zero tolerance on both allocs/op and B/op for flood
// benches).
//
// Current budget (Xeon @ 2.10 GHz reference): ~600 allocs/op and ~51 KB/op
// at -benchtime 60x. The first iteration grows the record arena, the event
// heap, the ticket pool and each node's flat inventory arrays; after that
// the residual is the transaction's own construction, hashing and per-run
// result map — the relay path itself allocates nothing. Most INVs are not
// events here (p2p's lazy INV), which is why the arena and the heap grow to
// a fraction of what BenchmarkFlood2000Traced's do.

func BenchmarkFlood2000(b *testing.B) {
	built, err := experiment.Build(context.Background(), experiment.Spec{
		Nodes:    2000,
		Seed:     1,
		Protocol: experiment.ProtoBitcoin,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer built.Close()
	key, err := chain.GenerateKey(rand.New(rand.NewSource(99)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built.Net.ResetInventory()
		tx := chain.Coinbase(uint64(i)+1, 1000, key.Address())
		res, err := built.Measurer.MeasureOnce(context.Background(), tx, 2*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Deltas) == 0 {
			b.Fatal("flood reached no connections")
		}
	}
}

// BenchmarkFlood2000Traced is BenchmarkFlood2000 with an event tracer
// attached: every send/deliver/first-seen lands in the ring buffer, and
// every INV lands as an event so that the trace shows it. The record path
// is a branch plus a fixed-slot store into preallocated shards, so allocs/op
// must stay at BenchmarkFlood2000's — benchdiff.sh's zero-tolerance flood
// gate (^BenchmarkFlood) holds tracing to that — while B/op is the ~91 KB of
// a flood whose every message is a record (arena and heap at full size).
func BenchmarkFlood2000Traced(b *testing.B) {
	built, err := experiment.Build(context.Background(), experiment.Spec{
		Nodes:    2000,
		Seed:     1,
		Protocol: experiment.ProtoBitcoin,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer built.Close()
	tracer := obs.NewTracer(obs.DefaultShardEvents, 1)
	built.Net.EnableTrace(tracer)
	built.Measurer.Trace = tracer.Shard(0)
	key, err := chain.GenerateKey(rand.New(rand.NewSource(99)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built.Net.ResetInventory()
		tx := chain.Coinbase(uint64(i)+1, 1000, key.Address())
		res, err := built.Measurer.MeasureOnce(context.Background(), tx, 2*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Deltas) == 0 {
			b.Fatal("flood reached no connections")
		}
	}
	b.StopTimer()
	if tracer.Len() == 0 {
		b.Fatal("tracer recorded nothing — the bench is not exercising the traced path")
	}
}

// BenchmarkFlood100k floods a 100,000-node overlay — ring plus seven
// random chords per node, degree ~16 — end to end in RAM: the scale
// target the struct-of-arrays node layout exists for. Each iteration is
// one full-network injection after a generation-bump inventory reset.
// Alongside wall clock it reports node-B, the retained per-node hot
// state (p2p.Network.NodeFootprintBytes / nodes), whose hard ceiling is
// asserted by TestFlood100kFootprintBudget in internal/p2p.
func BenchmarkFlood100k(b *testing.B) {
	const n = 100_000
	cfg := p2p.DefaultConfig()
	cfg.Validation = p2p.ValidationNone
	cfg.PingInterval = 0
	net, err := p2p.NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	net.Reserve(n)
	placer := geo.DefaultPlacer()
	pr := net.Streams().Stream("placement")
	nodes := make([]*p2p.Node, n)
	for i := range nodes {
		nodes[i] = net.AddNode(placer.Place(pr))
	}
	wires := rand.New(rand.NewSource(1))
	for i := range nodes {
		if err := net.Connect(nodes[i].ID(), nodes[(i+1)%n].ID()); err != nil {
			b.Fatal(err)
		}
		for c := 0; c < 7; c++ {
			if j := wires.Intn(n); j != i {
				_ = net.Connect(nodes[i].ID(), nodes[j].ID()) // dups/full peers skip
			}
		}
	}
	key, err := chain.GenerateKey(rand.New(rand.NewSource(99)))
	if err != nil {
		b.Fatal(err)
	}
	reached := 0
	net.OnTxFirstSeen = func(*p2p.Node, chain.Hash, sim.Time) { reached++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ResetInventory()
		reached = 0
		tx := chain.Coinbase(uint64(i)+1, 1000, key.Address())
		if err := nodes[i%n].SubmitTx(tx); err != nil {
			b.Fatal(err)
		}
		if err := net.Run(); err != nil {
			b.Fatal(err)
		}
		if reached != n {
			b.Fatalf("flood reached %d of %d nodes", reached, n)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(net.NodeFootprintBytes())/float64(net.NumNodes()), "node-B")
}

// BenchmarkFlood2000LBC is the campaign inner loop — one measured flood
// per op — on a 2000-node cluster-structured (LBC) overlay, held to the
// same zero-tolerance allocs/op gating as every ^BenchmarkFlood bench.
func BenchmarkFlood2000LBC(b *testing.B) {
	built, err := experiment.Build(context.Background(), experiment.Spec{
		Nodes:    2000,
		Seed:     1,
		Protocol: experiment.ProtoLBC,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer built.Close()
	key, err := chain.GenerateKey(rand.New(rand.NewSource(99)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built.Net.ResetInventory()
		tx := chain.Coinbase(uint64(i)+1, 1000, key.Address())
		res, err := built.Measurer.MeasureOnce(context.Background(), tx, 2*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Deltas) == 0 {
			b.Fatal("flood reached no connections")
		}
	}
}

// BenchmarkChurnFlood2000 is the flood under the default churn model, one
// sub-benchmark per Fig. 3 protocol: nodes leave and arrive while the
// transaction propagates, every departure sends its neighbours to the DNS
// seed for a refill (Bitcoin and the long links of LBC and BCBPT draw from
// DNSSeed.All, a BCBPT arrival asks DNSSeed.Recommend), so this is the
// bench where the cost of a membership change shows: churn-events/op says
// how many leaves and arrivals one op carried. The churn stream is seeded
// with the network, so at a fixed -benchtime=Nx the work, and with it
// allocs/op, repeats exactly.
func BenchmarkChurnFlood2000(b *testing.B) {
	campaigns := experiment.Figure3Campaigns(experiment.Options{Nodes: 2000, Seed: 1, ChurnOn: true, BuildWorkers: 1})
	for _, c := range campaigns {
		b.Run(string(c.Spec.Protocol), func(b *testing.B) {
			built, err := experiment.Build(context.Background(), c.Spec)
			if err != nil {
				b.Fatal(err)
			}
			defer built.Close()
			key, err := chain.GenerateKey(rand.New(rand.NewSource(99)))
			if err != nil {
				b.Fatal(err)
			}
			leaves0, arrivals0 := built.ChurnDriver.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				built.Net.ResetInventory()
				tx := chain.Coinbase(uint64(i)+1, 1000, key.Address())
				// Under churn a flood may lose samples to departures, so
				// unlike BenchmarkFlood2000 an empty result is not an error.
				if _, err := built.Measurer.MeasureOnce(context.Background(), tx, 2*time.Minute); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			leaves, arrivals := built.ChurnDriver.Stats()
			events := leaves - leaves0 + arrivals - arrivals0
			if events == 0 {
				b.Fatal("no node left or arrived — the bench is not exercising churn")
			}
			b.ReportMetric(float64(events)/float64(b.N), "churn-events/op")
		})
	}
}

// --- Campaign pooling ---
//
// One single-network campaign: every injection's Δt samples pooled into
// the campaign's Distribution.

func BenchmarkCampaignPooling(b *testing.B) {
	o := benchOpts(14)
	built, err := experiment.Build(context.Background(), experiment.Spec{
		Nodes: o.Nodes, Seed: o.Seed, Protocol: experiment.ProtoBitcoin,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer built.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := built.Campaign(o.Runs, o.Deadline)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Dist.N()), "samples")
	}
}

// --- Fig. 4: BCBPT threshold sweep ---

func benchThreshold(b *testing.B, dt time.Duration) {
	o := benchOpts(2)
	for i := 0; i < b.N; i++ {
		d := runCampaign(b, experiment.Spec{
			Nodes: o.Nodes, Seed: o.Seed, Protocol: experiment.ProtoBCBPT,
			BCBPT: fastBCBPT(dt),
		}, o)
		reportDist(b, "bcbpt", d)
	}
}

func BenchmarkFigure4Threshold30ms(b *testing.B)  { benchThreshold(b, 30*time.Millisecond) }
func BenchmarkFigure4Threshold50ms(b *testing.B)  { benchThreshold(b, 50*time.Millisecond) }
func BenchmarkFigure4Threshold100ms(b *testing.B) { benchThreshold(b, 100*time.Millisecond) }

// --- §V.C: Δt spread vs measuring-node connection count ---

func benchVariance(b *testing.B, proto experiment.ProtocolKind, k int) {
	o := benchOpts(3)
	o.Runs = 25
	for i := 0; i < b.N; i++ {
		d := runCampaign(b, experiment.Spec{
			Nodes: o.Nodes, Seed: o.Seed, Protocol: proto,
			BCBPT:                fastBCBPT(25 * time.Millisecond),
			MeasuringConnections: k,
		}, o)
		reportDist(b, "k", d)
	}
}

func BenchmarkVarianceVsConnectionsBitcoin8(b *testing.B) {
	benchVariance(b, experiment.ProtoBitcoin, 8)
}
func BenchmarkVarianceVsConnectionsBitcoin32(b *testing.B) {
	benchVariance(b, experiment.ProtoBitcoin, 32)
}
func BenchmarkVarianceVsConnectionsBitcoin64(b *testing.B) {
	benchVariance(b, experiment.ProtoBitcoin, 64)
}
func BenchmarkVarianceVsConnectionsBCBPT8(b *testing.B)  { benchVariance(b, experiment.ProtoBCBPT, 8) }
func BenchmarkVarianceVsConnectionsBCBPT32(b *testing.B) { benchVariance(b, experiment.ProtoBCBPT, 32) }
func BenchmarkVarianceVsConnectionsBCBPT64(b *testing.B) { benchVariance(b, experiment.ProtoBCBPT, 64) }

// --- §IV.A: ping-measurement overhead ---

func BenchmarkPingOverhead(b *testing.B) {
	o := benchOpts(4)
	for i := 0; i < b.N; i++ {
		var perNode [2]float64
		for j, proto := range []experiment.ProtocolKind{experiment.ProtoBitcoin, experiment.ProtoBCBPT} {
			built, err := experiment.Build(context.Background(), experiment.Spec{
				Nodes: o.Nodes, Seed: o.Seed, Protocol: proto,
				BCBPT: fastBCBPT(25 * time.Millisecond),
			})
			if err != nil {
				b.Fatal(err)
			}
			msgs, _ := built.Net.Stats().PingTraffic()
			perNode[j] = float64(msgs) / float64(o.Nodes)
		}
		b.ReportMetric(perNode[0], "bitcoin-pings/node")
		b.ReportMetric(perNode[1], "bcbpt-pings/node")
	}
}

// --- §V.C security: eclipse and partition exposure ---

func BenchmarkEclipse(b *testing.B) {
	o := benchOpts(5)
	for i := 0; i < b.N; i++ {
		built, err := experiment.Build(context.Background(), experiment.Spec{
			Nodes: o.Nodes, Seed: o.Seed, Protocol: experiment.ProtoBCBPT,
			BCBPT: fastBCBPT(25 * time.Millisecond),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := attack.Eclipse(built.Net, built.BCBPT, built.Measurer.ID(), attack.EclipseSpec{
			Adversaries:  16,
			JitterMeters: 5_000,
			SettleTime:   5 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fraction(), "bad-peer-fraction")
	}
}

func BenchmarkPartition(b *testing.B) {
	o := benchOpts(6)
	for i := 0; i < b.N; i++ {
		built, err := experiment.Build(context.Background(), experiment.Spec{
			Nodes: o.Nodes, Seed: o.Seed, Protocol: experiment.ProtoBCBPT,
			BCBPT: fastBCBPT(25 * time.Millisecond),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := attack.Partition(built.Net, built.BCBPT)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MinCut), "min-cut-edges")
		b.ReportMetric(res.MeanCut, "mean-cut-edges")
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationLongLinks sweeps the inter-cluster link budget k.
// k=0 should partition (lost samples explode); large k converges toward
// the random baseline's spread.
func benchLongLinks(b *testing.B, k int) {
	o := benchOpts(7)
	o.Runs = 25
	cfg := fastBCBPT(25 * time.Millisecond)
	cfg.LongLinks = k
	for i := 0; i < b.N; i++ {
		built, err := experiment.Build(context.Background(), experiment.Spec{
			Nodes: o.Nodes, Seed: o.Seed, Protocol: experiment.ProtoBCBPT, BCBPT: cfg,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := built.Campaign(o.Runs, o.Deadline)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Dist.Median())/1e6, "p50-ms")
		b.ReportMetric(float64(res.Lost), "lost-samples")
	}
}

func BenchmarkAblationLongLinks0(b *testing.B) { benchLongLinks(b, 0) }
func BenchmarkAblationLongLinks2(b *testing.B) { benchLongLinks(b, 2) }
func BenchmarkAblationLongLinks8(b *testing.B) { benchLongLinks(b, 8) }

// BenchmarkAblationChurn compares BCBPT Δt with and without churn.
func BenchmarkAblationChurnOff(b *testing.B) { benchChurn(b, false) }
func BenchmarkAblationChurnOn(b *testing.B)  { benchChurn(b, true) }

func benchChurn(b *testing.B, on bool) {
	o := benchOpts(8)
	o.Runs = 25
	o.ChurnOn = on
	for i := 0; i < b.N; i++ {
		fig, err := experiment.ThresholdSweep(o, []time.Duration{25 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		d := fig.Series[0].Dist
		reportDist(b, "bcbpt", d)
		b.ReportMetric(float64(fig.Series[0].Lost), "lost-samples")
	}
}

// BenchmarkAblationProbeCount sweeps how many pings a joiner spends per
// candidate: fewer probes = cheaper joins but noisier distance estimates
// (eq. 1 decided on an unconverged estimator).
func benchProbeCount(b *testing.B, probes int) {
	o := benchOpts(9)
	o.Runs = 25
	cfg := fastBCBPT(25 * time.Millisecond)
	cfg.ProbeCount = probes
	for i := 0; i < b.N; i++ {
		d := runCampaign(b, experiment.Spec{
			Nodes: o.Nodes, Seed: o.Seed, Protocol: experiment.ProtoBCBPT, BCBPT: cfg,
		}, o)
		reportDist(b, "bcbpt", d)
	}
}

func BenchmarkAblationProbeCount1(b *testing.B) { benchProbeCount(b, 1) }
func BenchmarkAblationProbeCount3(b *testing.B) { benchProbeCount(b, 3) }
func BenchmarkAblationProbeCount8(b *testing.B) { benchProbeCount(b, 8) }

// --- Extension: double-spend race (the paper's motivating attack) ---

func benchDoubleSpend(b *testing.B, proto experiment.ProtocolKind) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.DoubleSpend(context.Background(), experiment.DoubleSpendSpec{
			Nodes:    200,
			Seed:     10,
			Protocol: proto,
			BCBPT:    fastBCBPT(25 * time.Millisecond),
			Offsets:  []time.Duration{150 * time.Millisecond},
			Trials:   4,
			Deadline: time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].AttackerShare, "attacker-share")
		b.ReportMetric(res.Points[0].Success, "attack-success")
	}
}

func BenchmarkDoubleSpendBitcoin(b *testing.B) { benchDoubleSpend(b, experiment.ProtoBitcoin) }
func BenchmarkDoubleSpendBCBPT(b *testing.B)   { benchDoubleSpend(b, experiment.ProtoBCBPT) }

// --- Ablation: INV three-step vs direct-push relay (refs [9],[10]) ---

func benchRelayMode(b *testing.B, mode p2p.RelayMode) {
	o := benchOpts(11)
	o.Runs = 25
	for i := 0; i < b.N; i++ {
		d := runCampaign(b, experiment.Spec{
			Nodes: o.Nodes, Seed: o.Seed, Protocol: experiment.ProtoBCBPT,
			BCBPT: fastBCBPT(25 * time.Millisecond),
			Relay: mode,
		}, o)
		reportDist(b, "relay", d)
	}
}

func BenchmarkAblationRelayInv(b *testing.B)    { benchRelayMode(b, p2p.RelayInv) }
func BenchmarkAblationRelayDirect(b *testing.B) { benchRelayMode(b, p2p.RelayDirect) }

// --- Ablation: message loss resilience ---

func benchLoss(b *testing.B, loss float64) {
	o := benchOpts(12)
	o.Runs = 25
	for i := 0; i < b.N; i++ {
		built, err := experiment.Build(context.Background(), experiment.Spec{
			Nodes: o.Nodes, Seed: o.Seed, Protocol: experiment.ProtoBCBPT,
			BCBPT:    fastBCBPT(25 * time.Millisecond),
			LossProb: loss,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := built.Campaign(o.Runs, o.Deadline)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Dist.Median())/1e6, "p50-ms")
		b.ReportMetric(float64(res.Lost), "lost-samples")
	}
}

func BenchmarkAblationLoss0(b *testing.B)  { benchLoss(b, 0) }
func BenchmarkAblationLoss5(b *testing.B)  { benchLoss(b, 0.05) }
func BenchmarkAblationLoss20(b *testing.B) { benchLoss(b, 0.20) }

// --- Extension: fork rate under mining races (ref [9] metric) ---

func benchForks(b *testing.B, proto experiment.ProtocolKind) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.ForkRace(context.Background(), experiment.ForkSpec{
			Nodes:         200,
			Seed:          13,
			Protocol:      proto,
			BCBPT:         fastBCBPT(25 * time.Millisecond),
			Miners:        10,
			Blocks:        60,
			BlockInterval: 500 * time.Millisecond,
			BlockTxs:      50,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ForkRate, "fork-rate")
		b.ReportMetric(float64(res.Coverage90.Median())/1e6, "cover90-p50-ms")
	}
}

func BenchmarkForkRateBitcoin(b *testing.B) { benchForks(b, experiment.ProtoBitcoin) }
func BenchmarkForkRateBCBPT(b *testing.B)   { benchForks(b, experiment.ProtoBCBPT) }
