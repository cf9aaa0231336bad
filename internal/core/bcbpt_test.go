package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/topology"
	"repro/internal/wire"
)

// buildWorld creates a network of n nodes placed around the world and a
// BCBPT instance over it.
func buildWorld(t testing.TB, n int, seed int64, mutate func(*Config)) (*p2p.Network, *BCBPT, []p2p.NodeID) {
	t.Helper()
	net, ids := placeWorld(t, n, seed)
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

// placeWorld is buildWorld's network: n placed nodes and no protocol yet.
func placeWorld(t testing.TB, n int, seed int64) (*p2p.Network, []p2p.NodeID) {
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
	return net, ids
}

// joining reports whether id has a join record.
func joining(net *p2p.Network, proto *BCBPT, id p2p.NodeID) bool {
	nd, ok := net.Node(id)
	return ok && proto.joins.of(nd.Slot(), id) != nil
}

// requireNoJoinRecord fails t if any join record is left, or any of the
// exchange's memory that goes with the records: a free-listed JOIN or
// CLUSTER reply, or the member buffer.
func requireNoJoinRecord(t testing.TB, proto *BCBPT, when string) {
	t.Helper()
	p := &proto.joins
	if len(p.joins) != 0 || slices.ContainsFunc(p.bySlot, func(j int32) bool { return j != 0 }) {
		t.Errorf("%s: join records left: %d records, slots %v", when, len(p.joins), p.bySlot)
	}
	if p.joinMsgs != nil || p.clusterMsgs != nil || p.members != nil {
		t.Errorf("%s: %d JOINs and %d CLUSTER replies free-listed, member buffer of %d kept", when, len(p.joinMsgs), len(p.clusterMsgs), cap(p.members))
	}
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
	requireNoJoinRecord(t, proto, "after the build")
}

// TestMessageHookChains: a Network.OnMessage hook attached before New still
// hears every JOIN and CLUSTER, as BCBPT chains it, and watching changes
// nothing about the build.
func TestMessageHookChains(t *testing.T) {
	plain, plainProto, ids := buildWorld(t, 60, 6, nil)
	bootstrap(t, plain, plainProto, ids)

	net, _ := placeWorld(t, 60, 6)
	heard := map[wire.Command]uint64{}
	net.OnMessage = func(node *p2p.Node, from p2p.NodeID, msg wire.Message) {
		if _, ok := net.Node(from); !ok || node == nil {
			t.Errorf("message from %d to %v: an end is unknown", from, node)
		}
		heard[msg.Command()]++
	}
	proto, err := New(net, topology.NewDNSSeed(), plainProto.Config())
	if err != nil {
		t.Fatal(err)
	}
	bootstrap(t, net, proto, ids)

	st, sent := proto.Stats(), net.Stats()
	if heard[wire.CmdJoin] == 0 || heard[wire.CmdJoin] != sent.Messages[wire.CmdJoin] || heard[wire.CmdCluster] != sent.Messages[wire.CmdCluster] {
		t.Fatalf("the earlier hook heard %d JOIN and %d CLUSTER; %d and %d were sent",
			heard[wire.CmdJoin], heard[wire.CmdCluster], sent.Messages[wire.CmdJoin], sent.Messages[wire.CmdCluster])
	}
	if heard[wire.CmdJoin] != st.Joins+st.Rejects || len(heard) != 2 {
		t.Fatalf("BCBPT answered %d JOINs of the %d heard; hook heard %v", st.Joins+st.Rejects, heard[wire.CmdJoin], heard)
	}
	if st != plainProto.Stats() || sent != plain.Stats() {
		t.Fatalf("the hook changed the build: stats %+v / %+v", st, plainProto.Stats())
	}
	for _, id := range ids {
		c, _ := proto.ClusterOf(id)
		if pc, _ := plainProto.ClusterOf(id); c != pc {
			t.Fatalf("node %d in cluster %d with the hook, %d without", id, c, pc)
		}
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
	requireNoJoinRecord(t, proto, "a joiner left before deciding")
}

// TestJoinerLeavesWithJoinInFlight: a joiner that leaves after its decision,
// with its JOIN on the wire, enters no cluster — K's reply cannot reach it
// and the fallback finds no record — and leaves no record behind.
func TestJoinerLeavesWithJoinInFlight(t *testing.T) {
	// Every candidate is close enough: the decision is a JOIN.
	net, proto, ids := buildWorld(t, 50, 10, func(c *Config) { c.Threshold = time.Hour })
	bootstrap(t, net, proto, ids)
	nd := net.AddNode(geo.Location{
		Coord: geo.Coord{LatDeg: 50, LonDeg: 8}, Country: "DE", Region: "EU",
	})
	proto.OnJoin(nd.ID())
	sent := net.Stats().Messages[wire.CmdJoin]
	for net.Stats().Messages[wire.CmdJoin] == sent {
		if _, err := net.Scheduler().RunN(1); err != nil {
			t.Fatal(err)
		}
		if _, ok := proto.ClusterOf(nd.ID()); ok || net.Scheduler().Len() == 0 {
			t.Fatal("the joiner decided without a JOIN")
		}
	}
	if !joining(net, proto, nd.ID()) {
		t.Fatal("the joiner has no record with its JOIN in flight")
	}
	proto.OnLeave(nd.ID())
	net.RemoveNode(nd.ID())
	if err := net.RunUntil(context.Background(), net.Now()+10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := proto.ClusterOf(nd.ID()); ok {
		t.Error("the joiner ended up registered")
	}
	// K's reply, addressed to a node that has gone, cannot leave.
	if st := net.Stats(); st.Messages[wire.CmdCluster] != sent || st.Dropped != 1 {
		t.Errorf("%d CLUSTER replies sent for %d JOINs, %d dropped; want %d and 1", st.Messages[wire.CmdCluster], sent+1, st.Dropped, sent)
	}
	requireNoJoinRecord(t, proto, "a joiner left with its JOIN in flight")
}

func TestChurnKeepsRegistryConsistent(t *testing.T) {
	net, proto, ids := buildWorld(t, 50, 42, nil)
	bootstrap(t, net, proto, ids)
	net.OnDisconnect = proto.OnDisconnect

	// Interleave leaves and joins.
	placer := geo.DefaultPlacer()
	r := net.Streams().Stream("churn-test")
	for i := 0; i < 10; i++ {
		live := net.NodeIDs()
		victim := live[r.Intn(len(live))]
		proto.OnLeave(victim)
		net.RemoveNode(victim)
		nd := net.AddNode(placer.Place(r))
		proto.OnJoin(nd.ID())
		if err := net.RunUntil(context.Background(), net.Now()+5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.RunUntil(context.Background(), net.Now()+10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Registry only references live nodes.
	for c, members := range proto.Clusters() {
		for _, id := range members {
			if _, ok := net.Node(id); !ok {
				t.Fatalf("cluster %d references dead node %d", c, id)
			}
		}
	}
	// All live nodes clustered (joins settle within the run windows).
	for _, id := range net.NodeIDs() {
		if _, ok := proto.ClusterOf(id); !ok {
			if joining(net, proto, id) {
				continue // a join may still legitimately be in flight
			}
			t.Errorf("live node %d neither clustered nor joining", id)
		}
	}
	// The last joiner decided well inside the final run: its record, like
	// every departed node's, is gone.
	requireNoJoinRecord(t, proto, "after the churn")
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

func TestSingleProbeStillClusters(t *testing.T) {
	// ProbeCount below the estimator's convergence floor must degrade to
	// noisy decisions, not disable clustering entirely.
	net, proto, ids := buildWorld(t, 60, 43, func(c *Config) {
		c.ProbeCount = 1
	})
	bootstrap(t, net, proto, ids)
	if proto.NumClustered() != len(ids) {
		t.Fatalf("clustered %d of %d with single probes", proto.NumClustered(), len(ids))
	}
	// With world-spanning placement, some multi-member clusters must
	// still form in dense regions.
	multi := 0
	for _, members := range proto.Clusters() {
		if len(members) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("single-probe clustering produced only singletons")
	}
}

// TestTraceRecordsProtocolKinds pins BCBPT's protocol trace over a
// bootstrap and a few churn arrivals: a node enters exactly one cluster
// and stays in it for its session, each cluster's assignments count its
// size up from 1, and a joiner's threshold test is recorded at most once,
// as a join exactly when its closest candidate is within dt.
func TestTraceRecordsProtocolKinds(t *testing.T) {
	net, proto, ids := buildWorld(t, 60, 44, nil)
	tr := obs.NewTracer(0, 1)
	net.EnableTrace(tr)
	bootstrap(t, net, proto, ids)
	placer := geo.DefaultPlacer()
	r := net.Streams().Stream("trace-test")
	for i := 0; i < 5; i++ {
		nd := net.AddNode(placer.Place(r))
		ids = append(ids, nd.ID())
		proto.OnJoin(nd.ID())
	}
	if err := net.RunUntil(context.Background(), net.Now()+10*time.Second); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring overwrote %d events", tr.Dropped())
	}

	assigned := make(map[p2p.NodeID]ClusterID)
	size := make(map[ClusterID]uint64)
	decided := make(map[p2p.NodeID]bool)
	joins := 0
	for _, ev := range tr.Events() {
		id := p2p.NodeID(ev.P1)
		switch ev.Kind {
		case obs.KindClusterAssign:
			if c, dup := assigned[id]; dup {
				t.Errorf("node %d assigned to cluster %d, then to %d", id, c, ev.P2)
			}
			c := ClusterID(ev.P2)
			assigned[id] = c
			size[c]++
			if ev.P3 != size[c] {
				t.Errorf("node %d entered cluster %d as member %d, want %d", id, c, ev.P3, size[c])
			}
		case obs.KindJoinDecision:
			if decided[id] {
				t.Errorf("node %d decided twice", id)
			}
			decided[id] = true
			within := ev.P3 > 0 && time.Duration(ev.P3) < proto.Config().Threshold
			if join := ev.Code == obs.JoinCluster; join != within {
				t.Errorf("node %d: join = %v with closest RTT %v", id, join, time.Duration(ev.P3))
			} else if join {
				joins++
			}
		}
	}
	if len(assigned) != len(ids) {
		t.Errorf("%d assignments recorded for %d nodes", len(assigned), len(ids))
	}
	for _, id := range ids {
		if c, ok := proto.ClusterOf(id); !ok || assigned[id] != c {
			t.Errorf("node %d: traced cluster %d, registry (%d, %v)", id, assigned[id], c, ok)
		}
	}
	if joins == 0 {
		t.Error("no joiner asked to join a cluster")
	}
}

// TestDecisionFollowsMeasuredStream pins a joiner's threshold decision to
// the round trips it measured, read off the trace alone: its candidates
// are the targets of its pings in the order they left, and the RTT samples
// it took in before it decided, folded into an estimator per candidate,
// must give the decision's closest candidate and RTT by decide's rule —
// the closest ready estimator by minimum RTT, any estimator when none is
// ready, and a join exactly when that RTT is under dt. With two probes per
// candidate none is ever ready, which puts the fallback to the test. Once
// the joins have decided and settled, BCBPT holds no join state.
func TestDecisionFollowsMeasuredStream(t *testing.T) {
	for _, probes := range []int{3, 2} {
		net, proto, ids := buildWorld(t, 60, 45, func(c *Config) { c.ProbeCount = probes })
		tr := obs.NewTracer(0, 1)
		net.EnableTrace(tr)
		bootstrap(t, net, proto, ids)
		placer := geo.DefaultPlacer()
		r := net.Streams().Stream("decision-test")
		for i := 0; i < 5; i++ {
			nd := net.AddNode(placer.Place(r))
			proto.OnJoin(nd.ID())
		}
		if err := net.RunUntil(context.Background(), net.Now()+10*time.Second); err != nil {
			t.Fatal(err)
		}
		if tr.Dropped() != 0 {
			t.Fatalf("ring overwrote %d events", tr.Dropped())
		}

		cands := map[p2p.NodeID][]p2p.NodeID{}
		ests := map[[2]p2p.NodeID]*latency.Estimator{}
		decisions, joins, fallbacks := 0, 0, 0
		for _, ev := range tr.Events() {
			id := p2p.NodeID(ev.P1)
			switch {
			case ev.Kind == obs.KindSend && ev.Code == uint8(wire.CmdPing):
				if to := p2p.NodeID(ev.P2); !slices.Contains(cands[id], to) {
					cands[id] = append(cands[id], to)
				}
			case ev.Kind == obs.KindRTT:
				key := [2]p2p.NodeID{id, p2p.NodeID(ev.P2)}
				if ests[key] == nil {
					ests[key] = &latency.Estimator{}
				}
				ests[key].Observe(time.Duration(ev.P3))
			case ev.Kind == obs.KindJoinDecision:
				decisions++
				var best, anyBest p2p.NodeID
				var bestRTT, anyRTT time.Duration
				for _, c := range cands[id] {
					est := ests[[2]p2p.NodeID{id, c}]
					if est == nil {
						continue
					}
					if anyBest == 0 || est.Min() < anyRTT {
						anyBest, anyRTT = c, est.Min()
					}
					if est.Ready() && (best == 0 || est.Min() < bestRTT) {
						best, bestRTT = c, est.Min()
					}
				}
				if best == 0 {
					best, bestRTT = anyBest, anyRTT
					fallbacks++
				}
				code := obs.FoundCluster
				if best != 0 && bestRTT < proto.Config().Threshold {
					code = obs.JoinCluster
					joins++
				}
				if p2p.NodeID(ev.P2) != best || time.Duration(ev.P3) != bestRTT || ev.Code != code {
					t.Errorf("probes %d: node %d decided (closest %d at %v, code %d); its measurements give (%d at %v, code %d)",
						probes, id, ev.P2, time.Duration(ev.P3), ev.Code, best, bestRTT, code)
				}
			}
		}
		if decisions < len(ids)/2 || joins == 0 || joins == decisions || (probes < 3) != (fallbacks == decisions) {
			t.Errorf("probes %d: %d decisions, %d joins, %d with no ready estimator: the build did not exercise the rule", probes, decisions, joins, fallbacks)
		}
		requireNoJoinRecord(t, proto, fmt.Sprintf("probes %d, every join settled", probes))
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

// TestJoinExchangeAllocatesNothing: once one exchange has filled the free
// lists, a JOIN -> CLUSTER round trip between two clustered nodes, sent the
// way decide sends it and run until the reply is handled, allocates
// nothing: the JOIN and the reply are taken back and sent again, and the
// reply's member sample is drawn into its own buffer. The lists live while a
// join is under way, and a completed build keeps none of them.
func TestJoinExchangeAllocatesNothing(t *testing.T) {
	// A sample smaller than K's cluster, so the reply draws its members.
	net, proto, ids := buildWorld(t, 60, 6, func(c *Config) { c.MemberSample = 2 })
	bootstrap(t, net, proto, ids)
	requireNoJoinRecord(t, proto, "after the build")

	// K is the lowest ID of the first largest cluster.
	clusters := proto.Clusters()
	var largest []p2p.NodeID
	for c := ClusterID(1); int(c) <= len(clusters); c++ {
		if len(clusters[c]) > len(largest) {
			largest = clusters[c]
		}
	}
	if len(largest) <= proto.Config().MemberSample {
		t.Fatalf("the largest cluster has %d members, no more than the sample", len(largest))
	}
	k := largest[0]
	a, _ := net.Node(ids[0])
	if a.ID() == k {
		a, _ = net.Node(ids[1])
	}
	// A newcomer's join, opened and never decided, keeps the exchange's
	// free lists for the test's round trips.
	nd := net.AddNode(geo.Location{Coord: geo.Coord{LatDeg: 50, LonDeg: 8}, Country: "DE", Region: "EU"})
	proto.joins.open(nd.Slot(), nd.ID())

	exchange := func() {
		proto.sendJoin(a, k, time.Millisecond)
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	before, sent := proto.Stats().Joins, net.Stats().Messages[wire.CmdCluster]
	exchange()
	if got := proto.Stats().Joins; got != before+1 || net.Stats().Messages[wire.CmdCluster] != sent+1 {
		t.Fatalf("the warm-up exchange: %d JOINs accepted, %d CLUSTER replies sent; want 1 and 1", got-before, net.Stats().Messages[wire.CmdCluster]-sent)
	}
	if p := &proto.joins; len(p.joinMsgs) != 1 || len(p.clusterMsgs) != 1 || len(p.clusterMsgs[0].Members) != proto.Config().MemberSample {
		t.Fatalf("after one exchange %d JOINs and %d replies are free-listed, want 1 and 1 carrying %d members", len(p.joinMsgs), len(p.clusterMsgs), proto.Config().MemberSample)
	}
	if allocs := testing.AllocsPerRun(20, exchange); allocs != 0 {
		t.Errorf("a JOIN -> CLUSTER round trip allocates %v per run", allocs)
	}
	if got := proto.Stats().Joins; got != before+22 {
		t.Fatalf("%d JOINs accepted over 22 exchanges", got-before)
	}
	proto.joins.release(nd.Slot(), nd.ID())
	requireNoJoinRecord(t, proto, "after the last join ended")
}
