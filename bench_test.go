// Package repro_test holds the benchmarks that document a claim no
// workload of bench/ (what BENCHMARK.json runs) measures: the sharded
// build's speedup, which the -build-workers flag rests on, and the three
// BCBPT ablations PAPER.md's P3, P7 and R7 point at. Each ablation reports
// its statistics as custom units beside the wall clock. Run them once:
//
//	go test -run='^$' -bench=. -benchtime=1x .
//
// The figures, floods, builds and fleet are timed by bench/, and the
// allocation budgets are tests (TestSteadyStateZeroAllocs,
// TestTraceRecordAllocFree).
package repro_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
)

// bcbptSpec is a BCBPT network at dt = 25 ms with fast bootstrap pacing
// (results are threshold-driven, not pacing-driven).
func bcbptSpec(nodes int, seed int64) experiment.Spec {
	cfg := core.DefaultConfig()
	cfg.Threshold = 25 * time.Millisecond
	cfg.JoinStagger = 20 * time.Millisecond
	cfg.DecisionSlack = 500 * time.Millisecond
	return experiment.Spec{Nodes: nodes, Seed: seed, Protocol: experiment.ProtoBCBPT, BCBPT: cfg}
}

// --- Serial vs sharded single-network build ---
//
// One 2000-node BCBPT build, once with the sharded phases pinned to a
// single worker and once spread over GOMAXPROCS. Placement and per-joiner
// candidate ranking shard across cores; the serial probe/join event run is
// the rest of a build — while TestBuildShardedDeterminism proves the two
// produce bit-identical networks.

func benchBuild(b *testing.B, workers int) {
	spec := bcbptSpec(2000, 1)
	spec.BuildWorkers = workers
	for i := 0; i < b.N; i++ {
		built, err := experiment.Build(context.Background(), spec)
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

// --- Ablations ---

// benchAblation builds a 300-node network per op, varied from bcbptSpec as
// spec says, and measures 25 injections from its measuring node: the Δt
// median and p90, and the connection-runs that missed the 2 min deadline.
func benchAblation(b *testing.B, spec experiment.Spec) {
	for i := 0; i < b.N; i++ {
		built, err := experiment.Build(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		res, err := built.CampaignContext(context.Background(), 25, 2*time.Minute)
		built.Close()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Dist.Median())/1e6, "p50-ms")
		b.ReportMetric(float64(res.Dist.Percentile(90))/1e6, "p90-ms")
		b.ReportMetric(float64(res.Lost), "lost-samples")
	}
}

// benchProbeCount sweeps how many pings a joiner spends per candidate
// (P3): fewer probes = cheaper joins but noisier distance estimates (eq. 1
// decided on an unconverged estimator).
func benchProbeCount(b *testing.B, probes int) {
	spec := bcbptSpec(300, 9)
	spec.BCBPT.ProbeCount = probes
	benchAblation(b, spec)
}

func BenchmarkAblationProbeCount1(b *testing.B) { benchProbeCount(b, 1) }
func BenchmarkAblationProbeCount3(b *testing.B) { benchProbeCount(b, 3) }
func BenchmarkAblationProbeCount8(b *testing.B) { benchProbeCount(b, 8) }

// benchLongLinks sweeps k, the long links each node keeps to the outside
// of its cluster (P7): the ones that give a cluster "visibility into the
// available information from the outside cluster".
func benchLongLinks(b *testing.B, k int) {
	spec := bcbptSpec(300, 7)
	spec.BCBPT.LongLinks = k
	benchAblation(b, spec)
}

func BenchmarkAblationLongLinks0(b *testing.B) { benchLongLinks(b, 0) }
func BenchmarkAblationLongLinks2(b *testing.B) { benchLongLinks(b, 2) }
func BenchmarkAblationLongLinks8(b *testing.B) { benchLongLinks(b, 8) }

// benchLoss drops each delivered message with probability loss (R7).
func benchLoss(b *testing.B, loss float64) {
	spec := bcbptSpec(300, 12)
	spec.LossProb = loss
	benchAblation(b, spec)
}

func BenchmarkAblationLoss0(b *testing.B)  { benchLoss(b, 0) }
func BenchmarkAblationLoss5(b *testing.B)  { benchLoss(b, 0.05) }
func BenchmarkAblationLoss20(b *testing.B) { benchLoss(b, 0.20) }
