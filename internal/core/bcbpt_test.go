package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/p2p"
	"repro/internal/topology"
)

// buildWorld creates a network of n nodes placed around the world and a
// BCBPT instance over it.
func buildWorld(t testing.TB, n int, seed int64, mutate func(*Config)) (*p2p.Network, *BCBPT, []p2p.NodeID) {
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
	cfg := DefaultConfig()
	// Keep unit-test bootstraps quick.
	cfg.JoinStagger = 20 * time.Millisecond
	cfg.DecisionSlack = 500 * time.Millisecond
	if mutate != nil {
		mutate(&cfg)
	}
	proto, err := New(net, topology.NewDNSSeed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net, proto, ids
}

// bootstrap runs the full join procedure to completion.
func bootstrap(t testing.TB, net *p2p.Network, proto *BCBPT, ids []p2p.NodeID) {
	t.Helper()
	if err := proto.Bootstrap(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	if err := net.RunUntil(context.Background(), proto.BootstrapDeadline(len(ids))); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero threshold", func(c *Config) { c.Threshold = 0 }},
		{"zero probes", func(c *Config) { c.ProbeCount = 0 }},
		{"zero candidates", func(c *Config) { c.Candidates = 0 }},
		{"negative long links", func(c *Config) { c.LongLinks = -1 }},
		{"zero member sample", func(c *Config) { c.MemberSample = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted bad config")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestBootstrapClustersEveryNode(t *testing.T) {
	net, proto, ids := buildWorld(t, 120, 1, nil)
	bootstrap(t, net, proto, ids)

	if got := proto.NumClustered(); got != len(ids) {
		t.Fatalf("clustered %d of %d nodes", got, len(ids))
	}
	clusters := proto.Clusters()
	if len(clusters) < 2 {
		t.Errorf("only %d clusters; world-spanning population should split", len(clusters))
	}
	total := 0
	for c, members := range clusters {
		total += len(members)
		for _, id := range members {
			if got, ok := proto.ClusterOf(id); !ok || got != c {
				t.Fatalf("registry inconsistent for node %d", id)
			}
		}
	}
	if total != len(ids) {
		t.Errorf("membership total %d != %d", total, len(ids))
	}
}

func TestClustersAreLatencyProximate(t *testing.T) {
	// The defining property of BCBPT (eq. 1): same-cluster pairs have
	// lower base RTT than cross-cluster pairs, in distribution.
	net, proto, ids := buildWorld(t, 150, 2, nil)
	bootstrap(t, net, proto, ids)

	var intraSum, interSum time.Duration
	var intraN, interN int
	for i := 0; i < len(ids); i += 2 {
		for j := i + 1; j < len(ids); j += 5 {
			rtt, ok := net.BaseRTT(ids[i], ids[j])
			if !ok {
				continue
			}
			ci, _ := proto.ClusterOf(ids[i])
			cj, _ := proto.ClusterOf(ids[j])
			if ci == cj {
				intraSum += rtt
				intraN++
			} else {
				interSum += rtt
				interN++
			}
		}
	}
	if intraN == 0 || interN == 0 {
		t.Fatalf("degenerate sampling: intra=%d inter=%d", intraN, interN)
	}
	intraMean := intraSum / time.Duration(intraN)
	interMean := interSum / time.Duration(interN)
	if intraMean >= interMean {
		t.Errorf("intra-cluster mean RTT %v >= inter %v", intraMean, interMean)
	}
	// Intra-cluster links should hover near the threshold scale.
	if intraMean > 4*proto.Config().Threshold {
		t.Errorf("intra-cluster mean RTT %v far above threshold %v", intraMean, proto.Config().Threshold)
	}
}

func TestConnectedLinksRespectClusterStructure(t *testing.T) {
	net, proto, ids := buildWorld(t, 100, 3, nil)
	bootstrap(t, net, proto, ids)

	intra, inter := 0, 0
	for _, id := range ids {
		node, ok := net.Node(id)
		if !ok {
			continue
		}
		my, _ := proto.ClusterOf(id)
		for _, p := range node.Peers() {
			if other, _ := proto.ClusterOf(p); other == my {
				intra++
			} else {
				inter++
			}
		}
	}
	if intra == 0 {
		t.Fatal("no intra-cluster links")
	}
	if inter == 0 {
		t.Fatal("no long links; clusters would be isolated")
	}
	if intra <= inter {
		t.Errorf("intra=%d <= inter=%d; proximity structure missing", intra, inter)
	}
}

func TestOverlayIsConnected(t *testing.T) {
	net, proto, ids := buildWorld(t, 100, 4, nil)
	bootstrap(t, net, proto, ids)

	visited := make(map[p2p.NodeID]bool)
	queue := []p2p.NodeID{ids[0]}
	visited[ids[0]] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		node, ok := net.Node(cur)
		if !ok {
			continue
		}
		for _, next := range node.Peers() {
			if !visited[next] {
				visited[next] = true
				queue = append(queue, next)
			}
		}
	}
	if len(visited) != len(ids) {
		t.Errorf("overlay reaches %d of %d nodes; long links must bridge clusters", len(visited), len(ids))
	}
}

func TestSmallerThresholdYieldsSmallerClusters(t *testing.T) {
	// §V.C: "the number of nodes at each cluster is minimised" as dt
	// shrinks — the mechanism behind Fig. 4.
	meanSize := func(th time.Duration) float64 {
		net, proto, ids := buildWorld(t, 150, 5, func(c *Config) { c.Threshold = th })
		bootstrap(t, net, proto, ids)
		clusters := proto.Clusters()
		if len(clusters) == 0 {
			t.Fatal("no clusters")
		}
		return float64(len(ids)) / float64(len(clusters))
	}
	small := meanSize(15 * time.Millisecond)
	large := meanSize(150 * time.Millisecond)
	if small >= large {
		t.Errorf("mean cluster size: dt=15ms %.1f >= dt=150ms %.1f", small, large)
	}
}

func TestJoinExchangeUsesWireMessages(t *testing.T) {
	net, proto, ids := buildWorld(t, 60, 6, nil)
	bootstrap(t, net, proto, ids)

	st := proto.Stats()
	if st.Joins == 0 {
		t.Error("no JOIN exchanges recorded")
	}
	if st.Probes == 0 {
		t.Error("no measurement probes recorded")
	}
	// Founded + joined should cover all nodes.
	if st.Joins+st.Founded < uint64(len(ids)) {
		t.Errorf("joins %d + founded %d < nodes %d", st.Joins, st.Founded, len(ids))
	}
	// Wire-level: ping and join traffic must exist.
	wireStats := net.Stats()
	msgs, _ := wireStats.PingTraffic()
	if msgs == 0 {
		t.Error("no ping traffic on the wire")
	}
}

func TestLateJoinerEntersExistingCluster(t *testing.T) {
	net, proto, ids := buildWorld(t, 80, 7, nil)
	bootstrap(t, net, proto, ids)
	before := len(proto.Clusters())

	// A new node lands in Frankfurt, a dense region: it should join an
	// existing cluster, not found one.
	nd := net.AddNode(geo.Location{
		Coord: geo.Coord{LatDeg: 50.11, LonDeg: 8.68}, City: "Frankfurt", Country: "DE", Region: "EU",
	})
	proto.OnJoin(nd.ID())
	if err := net.RunUntil(context.Background(), net.Now()+10*time.Second); err != nil {
		t.Fatal(err)
	}
	c, ok := proto.ClusterOf(nd.ID())
	if !ok {
		t.Fatal("late joiner never clustered")
	}
	if len(proto.Clusters()[c]) < 2 {
		t.Error("late joiner founded a singleton despite nearby clusters")
	}
	if got := len(proto.Clusters()); got > before+1 {
		t.Errorf("cluster count grew from %d to %d on one join", before, got)
	}
	if nd.NumPeers() == 0 {
		t.Error("late joiner has no links")
	}
}

func TestIsolatedJoinerFoundsCluster(t *testing.T) {
	net, proto, ids := buildWorld(t, 40, 8, nil)
	bootstrap(t, net, proto, ids)

	// A node in the middle of the Pacific is beyond dt of everything.
	nd := net.AddNode(geo.Location{
		Coord: geo.Coord{LatDeg: -20, LonDeg: -140}, City: "Nowhere", Country: "XX", Region: "OC",
	})
	foundedBefore := proto.Stats().Founded
	proto.OnJoin(nd.ID())
	if err := net.RunUntil(context.Background(), net.Now()+10*time.Second); err != nil {
		t.Fatal(err)
	}
	c, ok := proto.ClusterOf(nd.ID())
	if !ok {
		t.Fatal("isolated joiner never clustered")
	}
	if members := proto.Clusters()[c]; len(members) != 1 {
		t.Errorf("isolated joiner cluster has %d members, want 1", len(members))
	}
	if proto.Stats().Founded != foundedBefore+1 {
		t.Error("Founded counter not incremented")
	}
	// Long links still give it reachability.
	if nd.NumPeers() == 0 {
		t.Error("isolated node has no long links")
	}
}

func TestLeaveRequiresNoProtocolAction(t *testing.T) {
	net, proto, ids := buildWorld(t, 60, 9, nil)
	bootstrap(t, net, proto, ids)
	net.OnDisconnect = proto.OnDisconnect

	leaver := ids[5]
	proto.OnLeave(leaver)
	net.RemoveNode(leaver)
	if err := net.RunUntil(context.Background(), net.Now()+5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := proto.ClusterOf(leaver); ok {
		t.Error("departed node still registered")
	}
	for _, id := range net.NodeIDs() {
		node, _ := net.Node(id)
		if node.IsPeer(leaver) {
			t.Fatalf("node %d still peers with departed node", id)
		}
	}
}

func TestChurnedJoinerDoesNotCorruptRegistry(t *testing.T) {
	net, proto, ids := buildWorld(t, 50, 10, nil)
	bootstrap(t, net, proto, ids)

	// Start a join, then remove the node before it can decide.
	nd := net.AddNode(geo.Location{
		Coord: geo.Coord{LatDeg: 50, LonDeg: 8}, Country: "DE", Region: "EU",
	})
	proto.OnJoin(nd.ID())
	proto.OnLeave(nd.ID())
	net.RemoveNode(nd.ID())
	if err := net.RunUntil(context.Background(), net.Now()+10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := proto.ClusterOf(nd.ID()); ok {
		t.Error("churned joiner ended up registered")
	}
}

func TestMaintenanceMigratesMisplacedNode(t *testing.T) {
	// Build a world, then force a node into a far-away cluster and check
	// maintenance pulls it back toward a latency-closer one.
	net, proto, ids := buildWorld(t, 80, 11, nil)
	bootstrap(t, net, proto, ids)
	net.OnDisconnect = proto.OnDisconnect

	// Find two clusters with at least 3 members each.
	var big []ClusterID
	for c, members := range proto.Clusters() {
		if len(members) >= 3 {
			big = append(big, c)
		}
	}
	if len(big) < 2 {
		t.Skip("world did not produce two big clusters")
	}
	// Pick a member of big[0] and graft it into big[1]'s registry (a
	// "misplacement" as could arise from stale measurements).
	victim := proto.Clusters()[big[0]][0]
	proto.assign(victim, big[1])

	tick := proto.StartMaintenance(50 * time.Millisecond)
	defer tick.Stop()
	if err := net.RunUntil(context.Background(), net.Now()+5*time.Minute); err != nil {
		t.Fatal(err)
	}
	got, ok := proto.ClusterOf(victim)
	if !ok {
		t.Fatal("victim lost its cluster")
	}
	if got == big[1] {
		// Maintenance may legitimately keep it if big[1] happens to be
		// close too; require at least that migrations occur in general.
		if proto.Stats().Migrations == 0 {
			t.Error("no migrations at all during maintenance")
		}
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	build := func() map[p2p.NodeID]ClusterID {
		net, proto, ids := buildWorld(t, 70, 12, nil)
		bootstrap(t, net, proto, ids)
		out := make(map[p2p.NodeID]ClusterID)
		for _, id := range ids {
			c, _ := proto.ClusterOf(id)
			out[id] = c
		}
		return out
	}
	a, b := build(), build()
	for id, c := range a {
		if b[id] != c {
			t.Fatalf("node %d cluster differs across identical runs: %d vs %d", id, c, b[id])
		}
	}
}

func TestRejectedJoinFallsBack(t *testing.T) {
	// With a minuscule threshold every JOIN candidate fails eq. (1), so
	// every node founds its own cluster.
	net, proto, ids := buildWorld(t, 30, 13, func(c *Config) {
		c.Threshold = time.Nanosecond
	})
	bootstrap(t, net, proto, ids)
	if got := proto.NumClustered(); got != len(ids) {
		t.Fatalf("clustered %d of %d", got, len(ids))
	}
	if got := len(proto.Clusters()); got != len(ids) {
		t.Errorf("clusters = %d, want %d singletons", got, len(ids))
	}
}

func BenchmarkBootstrap200(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, proto, ids := buildWorld(b, 200, 14, nil)
		if err := proto.Bootstrap(context.Background(), ids); err != nil {
			b.Fatal(err)
		}
		if err := net.RunUntil(context.Background(), proto.BootstrapDeadline(len(ids))); err != nil {
			b.Fatal(err)
		}
		if proto.NumClustered() != len(ids) {
			b.Fatal("bootstrap incomplete")
		}
	}
}

// TestBootstrapDeadlineLanes pins the deadline to the lane-sharded join
// schedule: with explicit lanes the deadline must cover exactly the last
// wave's start plus the probing window, and the auto-lane default must
// shrink a paper-scale bootstrap well below the old serial estimate.
func TestBootstrapDeadlineLanes(t *testing.T) {
	mk := func(mutate func(*Config)) *BCBPT {
		net, err := p2p.NewNetwork(p2p.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		proto, err := New(net, topology.NewDNSSeed(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return proto
	}

	serial := mk(func(c *Config) { c.JoinLanes = 1 })
	probing := time.Duration(serial.cfg.ProbeCount)*serial.cfg.ProbeGap + 2*serial.cfg.DecisionSlack
	const n = 2048
	wantSerial := time.Duration(n-1)*serial.cfg.JoinStagger + probing + 5*time.Second
	if got := serial.BootstrapDeadline(n); got != wantSerial {
		t.Errorf("serial deadline = %v, want %v", got, wantSerial)
	}

	laned := mk(func(c *Config) { c.JoinLanes = 8 })
	wantLaned := time.Duration((n-1)/8)*laned.cfg.JoinStagger + probing + 5*time.Second
	if got := laned.BootstrapDeadline(n); got != wantLaned {
		t.Errorf("8-lane deadline = %v, want %v", got, wantLaned)
	}

	auto := mk(nil)
	if got := auto.BootstrapDeadline(n); got >= wantSerial/2 {
		t.Errorf("auto-lane deadline %v has not left the serial join sequence (%v)", got, wantSerial)
	}
	// Small populations keep the serial schedule: the deadline must not
	// assume lanes the schedule does not use.
	if got, want := auto.BootstrapDeadline(300), auto.BootstrapDeadline(300); got != want {
		t.Errorf("deadline unstable: %v vs %v", got, want)
	}
	if auto.cfg.lanesFor(300) != 1 {
		t.Errorf("auto lanes for 300 nodes = %d, want serial", auto.cfg.lanesFor(300))
	}
}

// TestBootstrapLanedClusteringCompletes runs a laned bootstrap to its
// derived deadline and requires every node clustered — i.e. the deadline
// genuinely covers the sharded schedule it advertises.
func TestBootstrapLanedClusteringCompletes(t *testing.T) {
	net, proto, ids := buildWorld(t, 300, 21, func(c *Config) { c.JoinLanes = 6 })
	bootstrap(t, net, proto, ids)
	if got := proto.NumClustered(); got != len(ids) {
		t.Errorf("clustered %d of %d nodes by the laned deadline", got, len(ids))
	}
}

// TestBootstrapOnePendingJoin: Bootstrap reserves every join's place and
// queues only the first, so right after it the queue holds one event, not
// one per node, and the joins still all run.
func TestBootstrapOnePendingJoin(t *testing.T) {
	net, proto, ids := buildWorld(t, 500, 17, nil)
	if err := proto.Bootstrap(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	if got := net.Scheduler().Len(); got != 1 {
		t.Fatalf("%d events pending after Bootstrap of %d nodes, want 1", got, len(ids))
	}
	if err := net.RunUntil(context.Background(), proto.BootstrapDeadline(len(ids))); err != nil {
		t.Fatal(err)
	}
	if got := proto.NumClustered(); got != len(ids) {
		t.Errorf("clustered %d of %d nodes", got, len(ids))
	}
}

// TestPermIntoMatchesRandPerm: handleJoin's reused-buffer permutation is
// rand.Perm draw for draw — the same slice and the same stream afterwards,
// at every length, whatever an earlier and longer call left in the buffer —
// so every network built with it is the network rand.Perm built.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	a, b := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	var buf []int
	for _, n := range []int{0, 1, 2, 33, 1000, 7, 64, 999} {
		buf = permInto(b, buf, n)
		if want := a.Perm(n); !slices.Equal(buf, want) {
			t.Fatalf("permInto(%d) = %v, rand.Perm = %v", n, buf, want)
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("streams diverge after a permutation of %d", n)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { buf = permInto(b, buf, 1000) }); allocs != 0 {
		t.Fatalf("permInto into a large enough buffer allocated %.0f times", allocs)
	}
}
