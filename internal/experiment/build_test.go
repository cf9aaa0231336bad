package experiment

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestBCBPTNodeFootprint holds the per-node memory of a BCBPT network at
// the benchmark's bcbpt_build size — Fig. 3's BCBPT campaign, 3000 nodes —
// to what the nodes need once built: the node itself, its peer table and
// its inventory arrays, 499 B at seed 1; the budget is that plus 5 %. A
// node keeps no RTT estimate: §IV.A's measurements are the join's, which
// drops them when the join finishes (core's joinTable), so a node that
// kept an estimator per candidate probed would break the budget.
func TestBCBPTNodeFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("3000-node build")
	}
	spec := Figure3Campaigns(Options{Nodes: 3000, Seed: 1})[2].Spec
	b, err := Build(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	perNode := b.Net.NodeFootprintBytes() / b.Net.NumNodes()
	t.Logf("%d B per node", perNode)
	if perNode > 524 {
		t.Fatalf("a node of a 3000-node BCBPT network holds %d B, budget 524", perNode)
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
// guard: a build that dies mid-way (here: cancelled during the bootstrap)
// must release the network and leave no goroutine behind.
func TestFailedBuildLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		if _, err := Build(ctx, Spec{
			Nodes: 4000, Seed: int64(i), Protocol: ProtoBCBPT,
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
