package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// fingerprint serialises everything the sharded build computes — node
// placement, the full peer graph, and (under BCBPT) every cluster
// assignment — so two builds can be compared bit for bit.
func fingerprint(b *Built) string {
	var sb strings.Builder
	for _, id := range b.Net.NodeIDs() {
		node, ok := b.Net.Node(id)
		if !ok {
			continue
		}
		loc := node.Location()
		fmt.Fprintf(&sb, "%d@%.9f,%.9f:", id, loc.Coord.LatDeg, loc.Coord.LonDeg)
		for _, p := range node.Peers() {
			fmt.Fprintf(&sb, "%d,", p)
		}
		if b.BCBPT != nil {
			c, _ := b.BCBPT.ClusterOf(id)
			fmt.Fprintf(&sb, "/c%d", c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestBuildShardedDeterminism is the tentpole invariant: the sharded
// build is bit-identical to the serial build for any worker count — same
// placement, same topology, same cluster registry, and same measurement
// output downstream.
func TestBuildShardedDeterminism(t *testing.T) {
	spec := Spec{
		Nodes:    700, // > placementShardSize, and wide enough for 2 join lanes
		Seed:     5,
		Protocol: ProtoBCBPT,
		BCBPT:    fastBCBPT(25 * time.Millisecond),
	}
	var baseFP string
	var baseDist string
	for _, workers := range []int{1, 4, 16} {
		spec.BuildWorkers = workers
		b, err := Build(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fp := fingerprint(b)
		res, err := b.CampaignContext(context.Background(), 8, time.Minute)
		if err != nil {
			t.Fatalf("workers=%d campaign: %v", workers, err)
		}
		dist := res.Dist.String()
		if workers == 1 {
			baseFP, baseDist = fp, dist
			continue
		}
		if fp != baseFP {
			t.Errorf("workers=%d: topology differs from serial build", workers)
		}
		if dist != baseDist {
			t.Errorf("workers=%d: measurement output %s differs from serial %s", workers, dist, baseDist)
		}
	}
}

// TestBCBPTNodeFootprint holds the per-node memory of a BCBPT network at
// the benchmark's bcbpt_build size — Fig. 3's BCBPT campaign, 3000 nodes —
// to what the nodes need once built: peer tables and one estimator entry
// per candidate probed. The up to 48 join-time pings of a node (§IV.A's
// repeated measurement) are in flight together and used to leave it a
// 2 KB slice for life, 2,289 B per node in all; a probe's state rides its
// flight record now and the node reads 1,289 B.
func TestBCBPTNodeFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("3000-node build")
	}
	spec := Figure3Campaigns(Options{Nodes: 3000, Seed: 1, BuildWorkers: 1})[2].Spec
	b, err := Build(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if perNode := b.Net.NodeFootprintBytes() / b.Net.NumNodes(); perNode > 1500 {
		t.Fatalf("a node of a 3000-node BCBPT network holds %d B, budget 1,500", perNode)
	}
}

// TestBuildShardedDeterminismBaselines covers the non-BCBPT protocols:
// their bootstrap is serial, but placement still shards.
func TestBuildShardedDeterminismBaselines(t *testing.T) {
	for _, proto := range []ProtocolKind{ProtoBitcoin, ProtoLBC} {
		spec := Spec{Nodes: 600, Seed: 11, Protocol: proto}
		spec.BuildWorkers = 1
		serial, err := Build(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s serial: %v", proto, err)
		}
		spec.BuildWorkers = 8
		sharded, err := Build(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s sharded: %v", proto, err)
		}
		if fingerprint(serial) != fingerprint(sharded) {
			t.Errorf("%s: sharded build differs from serial", proto)
		}
	}
}

func TestBuildCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	b, err := Build(ctx, Spec{Nodes: 5000, Seed: 1, Protocol: ProtoBCBPT})
	if err == nil {
		t.Fatal("cancelled build returned nil error")
	}
	if b != nil {
		t.Error("cancelled build returned a network")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("pre-cancelled build took %v, want immediate return", elapsed)
	}
}

func TestBuildCancelMidBootstrap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// Big enough that the build cannot finish before cancel fires.
	_, err := Build(ctx, Spec{Nodes: 4000, Seed: 2, Protocol: ProtoBCBPT})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("build outran its cancellation; raise Nodes")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	// "Promptly": orders of magnitude under the full build + bootstrap
	// run, far over any CI scheduling jitter.
	if elapsed > 30*time.Second {
		t.Errorf("cancelled build returned after %v", elapsed)
	}
}

// TestFailedBuildLeavesNoGoroutines is the error-path leak regression
// guard: a build that dies mid-way (here: cancelled during the sharded
// phases) must join its worker pool and release the network before
// returning.
func TestFailedBuildLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		if _, err := Build(ctx, Spec{
			Nodes: 4000, Seed: int64(i), Protocol: ProtoBCBPT, BuildWorkers: 8,
		}); err == nil {
			t.Fatal("build outran its cancellation; raise Nodes")
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after failed builds, was %d before",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSpecBCBPTConfigDetection pins the zero-value rule: only the exact
// zero config means "use the defaults"; a deliberately configured spec is
// used as given, and a partial one fails validation loudly instead of
// being silently replaced.
func TestSpecBCBPTConfigDetection(t *testing.T) {
	base := Spec{Nodes: 60, Seed: 3, Protocol: ProtoBCBPT}

	zero := base
	b, err := Build(context.Background(), zero)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.BCBPT.Config(), core.DefaultConfig(); got != want {
		t.Errorf("zero-value spec built config %+v, want defaults %+v", got, want)
	}

	custom := base
	custom.BCBPT = core.DefaultConfig()
	custom.BCBPT.ProbeCount = 7 // non-default probing, default threshold
	b, err = Build(context.Background(), custom)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.BCBPT.Config(); got.ProbeCount != 7 {
		t.Errorf("custom ProbeCount clobbered: got %+v", got)
	}

	partial := base
	partial.BCBPT = core.Config{ProbeCount: 5} // Threshold missing: invalid
	if _, err := Build(context.Background(), partial); err == nil {
		t.Error("partial BCBPT config silently accepted")
	} else if !strings.Contains(err.Error(), "Threshold") {
		t.Errorf("partial config error %q does not name the missing Threshold", err)
	}
}

// TestBuiltCloseIdempotent: Close must be safe to call repeatedly and on
// a fully built network.
func TestBuiltCloseIdempotent(t *testing.T) {
	b, err := Build(context.Background(), Spec{Nodes: 30, Seed: 9, Protocol: ProtoBitcoin})
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	b.Close()
	if b.Net.Scheduler().Len() != 0 {
		t.Errorf("closed network still has %d pending events", b.Net.Scheduler().Len())
	}
	var nilBuilt *Built
	nilBuilt.Close() // must not panic
}
