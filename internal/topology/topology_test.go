package topology

import (
	"context"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/geo"
	"repro/internal/p2p"
)

var (
	_ Protocol = (*Random)(nil)
	_ Protocol = (*LBC)(nil)
)

// buildNetwork creates n placed nodes.
func buildNetwork(t testing.TB, n int, seed int64) (*p2p.Network, []p2p.NodeID) {
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

// connectedComponents returns the number of weakly connected components of
// the overlay.
func connectedComponents(net *p2p.Network) int {
	ids := net.NodeIDs()
	visited := make(map[p2p.NodeID]bool, len(ids))
	comps := 0
	for _, start := range ids {
		if visited[start] {
			continue
		}
		comps++
		queue := []p2p.NodeID{start}
		visited[start] = true
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
	}
	return comps
}

func TestDNSSeedRecommendNearest(t *testing.T) {
	seed := NewDNSSeed()
	locs := map[p2p.NodeID]geo.Location{
		1: {Coord: geo.Coord{LatDeg: 50.11, LonDeg: 8.68}, Country: "DE"},   // Frankfurt
		2: {Coord: geo.Coord{LatDeg: 52.37, LonDeg: 4.90}, Country: "NL"},   // Amsterdam
		3: {Coord: geo.Coord{LatDeg: 35.68, LonDeg: 139.69}, Country: "JP"}, // Tokyo
		4: {Coord: geo.Coord{LatDeg: 48.86, LonDeg: 2.35}, Country: "FR"},   // Paris
	}
	for id, loc := range locs {
		seed.Register(id, loc)
	}
	// From London, nearest should be Paris, then Amsterdam, then Frankfurt.
	london := geo.Location{Coord: geo.Coord{LatDeg: 51.51, LonDeg: -0.13}, Country: "GB"}
	got := seed.Recommend(0, london, 3)
	want := []p2p.NodeID{4, 2, 1}
	if len(got) != 3 {
		t.Fatalf("Recommend returned %d, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Recommend = %v, want %v", got, want)
		}
	}
	// Excludes self.
	got = seed.Recommend(4, london, 10)
	for _, id := range got {
		if id == 4 {
			t.Error("Recommend included self")
		}
	}
	// Remove works.
	seed.Remove(3)
	if seed.Len() != 3 {
		t.Errorf("Len = %d after remove, want 3", seed.Len())
	}
	if _, ok := coordOf(seed, 3); ok {
		t.Error("removed node still has a coordinate")
	}
}

// TestDNSSeedReserve: a registry reserved for n nodes takes n
// registrations without allocating, and Reserve leaves a registry that
// already holds nodes as it is.
func TestDNSSeedReserve(t *testing.T) {
	const n = 500
	loc := geo.Location{Coord: geo.Coord{LatDeg: 50.11, LonDeg: 8.68}, Country: "DE"}
	var seed *DNSSeed
	reserved := func() {
		seed = NewDNSSeed()
		seed.Reserve(n)
	}
	empty := testing.AllocsPerRun(3, reserved)
	filled := testing.AllocsPerRun(3, func() {
		reserved()
		for id := p2p.NodeID(1); id <= n; id++ {
			seed.Register(id, loc)
		}
	})
	if filled != empty {
		t.Errorf("%d registrations into a reserved registry allocate %v", n, filled-empty)
	}
	seed.Reserve(2 * n)
	if got, ok := coordOf(seed, n); seed.Len() != n || !ok || got != loc.Coord {
		t.Fatalf("Reserve on a filled registry left %d of %d nodes, node %d at %v, %v", seed.Len(), n, n, got, ok)
	}
}

// TestIndexedSeedAllocations: on a 3000-node registry whose index is
// built, a query for BCBPT's ranking (4 × 16 candidates) appended into a
// reused buffer allocates nothing, Recommend allocates its result and
// nothing else, and a Remove followed by a Register of the same node
// allocates nothing. Each count is the total over one query or one
// re-registration per node, not a rounded mean.
func TestIndexedSeedAllocations(t *testing.T) {
	const n, k = 3000, 64
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection mid-count allocates in the runtime
	locs := geo.DefaultPlacer().PlaceN(rand.New(rand.NewSource(1)), n)
	d := NewDNSSeed()
	for i, loc := range locs {
		d.Register(p2p.NodeID(i+1), loc)
	}
	buf := d.AppendRecommend(nil, 1, locs[0], k) // builds the index
	perNode := func(f func(id p2p.NodeID, loc geo.Location)) float64 {
		return testing.AllocsPerRun(1, func() {
			for i, loc := range locs {
				f(p2p.NodeID(i+1), loc)
			}
		})
	}
	if got := perNode(func(id p2p.NodeID, loc geo.Location) {
		buf = d.AppendRecommend(buf[:0], id, loc, k)
	}); got != 0 {
		t.Errorf("%d AppendRecommends into a reused buffer allocate %v times", n, got)
	}
	var ranked []p2p.NodeID
	if got := perNode(func(id p2p.NodeID, loc geo.Location) {
		ranked = d.Recommend(id, loc, k)
	}); got != n || len(ranked) != k {
		t.Errorf("%d Recommends allocate %v times and return %d nodes, want %d and %d", n, got, len(ranked), n, k)
	}
	if got := perNode(func(id p2p.NodeID, loc geo.Location) {
		d.Remove(id)
		d.Register(id, loc)
	}); got != 0 {
		t.Errorf("%d Removes, each followed by a Register, allocate %v times", n, got)
	}
	if d.Len() != n {
		t.Fatalf("%d nodes registered, want %d", d.Len(), n)
	}
}

func TestRandomBootstrapDegreeAndConnectivity(t *testing.T) {
	net, ids := buildNetwork(t, 200, 1)
	proto := NewRandom(net, NewDNSSeed(), 0)
	if err := proto.Bootstrap(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	deg := net.Config().MaxOutbound
	for _, id := range ids {
		node, _ := net.Node(id)
		if node.Outbound() != deg {
			t.Fatalf("node %d outbound = %d, want %d", id, node.Outbound(), deg)
		}
	}
	if comps := connectedComponents(net); comps != 1 {
		t.Errorf("random graph has %d components, want 1", comps)
	}
}

func TestRandomRefillAfterDisconnect(t *testing.T) {
	net, ids := buildNetwork(t, 50, 2)
	proto := NewRandom(net, NewDNSSeed(), 4)
	if err := proto.Bootstrap(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	net.OnDisconnect = proto.OnDisconnect

	victim := ids[0]
	node, _ := net.Node(victim)
	before := node.Outbound()
	peer := node.Peers()[0]
	net.Disconnect(victim, peer)
	if node.Outbound() < before {
		t.Errorf("outbound after refill = %d, want >= %d", node.Outbound(), before)
	}
}

func TestRandomChurnFlow(t *testing.T) {
	net, ids := buildNetwork(t, 60, 3)
	seed := NewDNSSeed()
	proto := NewRandom(net, seed, 4)
	if err := proto.Bootstrap(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	net.OnDisconnect = proto.OnDisconnect

	// Leave: protocol forgets the node, then the network removes it.
	leaver := ids[10]
	proto.OnLeave(leaver)
	net.RemoveNode(leaver)
	if seed.Len() != 59 {
		t.Errorf("seed count = %d, want 59", seed.Len())
	}
	for _, id := range net.NodeIDs() {
		node, _ := net.Node(id)
		if node.IsPeer(leaver) {
			t.Fatalf("node %d still peers with departed %d", id, leaver)
		}
	}

	// Join: a new node gets wired in.
	placer := geo.DefaultPlacer()
	newNode := net.AddNode(placer.Place(net.Streams().Stream("late")))
	proto.OnJoin(newNode.ID())
	if newNode.Outbound() != 4 {
		t.Errorf("joined node outbound = %d, want 4", newNode.Outbound())
	}
}

func TestLBCClustersByCountry(t *testing.T) {
	net, ids := buildNetwork(t, 400, 4)
	proto := NewLBC(net, NewDNSSeed(), LBCConfig{})
	if err := proto.Bootstrap(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	clusters := proto.Clusters()
	if len(clusters) < 5 {
		t.Fatalf("only %d clusters formed", len(clusters))
	}
	// Every node is assigned, and country clusters are homogeneous.
	assigned := 0
	for key, members := range clusters {
		assigned += len(members)
		for _, id := range members {
			node, ok := net.Node(id)
			if !ok {
				t.Fatalf("cluster %s contains dead node %d", key, id)
			}
			got, ok := proto.ClusterOf(id)
			if !ok || got != key {
				t.Fatalf("ClusterOf(%d) = %q, want %q", id, got, key)
			}
			if len(key) > 8 && key[:8] == "country/" {
				if "country/"+node.Location().Country != key {
					t.Fatalf("node %d in %s but located in %s", id, key, node.Location().Country)
				}
			}
		}
	}
	if assigned != len(ids) {
		t.Errorf("assigned %d of %d nodes", assigned, len(ids))
	}
	if comps := connectedComponents(net); comps != 1 {
		t.Errorf("LBC graph has %d components, want 1 (long links must bridge)", comps)
	}
}

func TestLBCMostLinksAreIntraCluster(t *testing.T) {
	net, ids := buildNetwork(t, 300, 5)
	proto := NewLBC(net, NewDNSSeed(), LBCConfig{})
	if err := proto.Bootstrap(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	intra, inter := 0, 0
	for _, id := range ids {
		node, _ := net.Node(id)
		my, _ := proto.ClusterOf(id)
		for _, p := range node.Peers() {
			other, _ := proto.ClusterOf(p)
			if other == my {
				intra++
			} else {
				inter++
			}
		}
	}
	if intra <= inter*2 {
		t.Errorf("intra=%d inter=%d; clustering too weak", intra, inter)
	}
	if inter == 0 {
		t.Error("no long links at all; network would partition")
	}
}

func TestLBCJoinLeave(t *testing.T) {
	net, ids := buildNetwork(t, 150, 6)
	seed := NewDNSSeed()
	proto := NewLBC(net, seed, LBCConfig{})
	if err := proto.Bootstrap(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	net.OnDisconnect = proto.OnDisconnect

	leaver := ids[3]
	proto.OnLeave(leaver)
	net.RemoveNode(leaver)
	if _, ok := proto.ClusterOf(leaver); ok {
		t.Error("departed node still in cluster registry")
	}

	placer := geo.DefaultPlacer()
	nd := net.AddNode(placer.Place(net.Streams().Stream("late")))
	proto.OnJoin(nd.ID())
	key, ok := proto.ClusterOf(nd.ID())
	if !ok {
		t.Fatal("joined node has no cluster")
	}
	if nd.NumPeers() == 0 {
		t.Error("joined node has no links")
	}
	// All its intra links must be in its own cluster.
	for _, p := range nd.Peers() {
		if other, _ := proto.ClusterOf(p); other != key {
			// long links are allowed; require at least one intra link
			continue
		}
	}
}

func TestLBCGeographicProximityOfClusters(t *testing.T) {
	// The defining property: same-cluster pairs are geographically closer
	// than cross-cluster pairs on average.
	net, ids := buildNetwork(t, 300, 7)
	proto := NewLBC(net, NewDNSSeed(), LBCConfig{})
	if err := proto.Bootstrap(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	var intraSum, interSum float64
	var intraN, interN int
	for i := 0; i < len(ids); i += 3 {
		for j := i + 1; j < len(ids); j += 7 {
			a, _ := net.Node(ids[i])
			b, _ := net.Node(ids[j])
			d := geo.DistanceMeters(a.Location().Coord, b.Location().Coord)
			ca, _ := proto.ClusterOf(ids[i])
			cb, _ := proto.ClusterOf(ids[j])
			if ca == cb {
				intraSum += d
				intraN++
			} else {
				interSum += d
				interN++
			}
		}
	}
	if intraN == 0 || interN == 0 {
		t.Skip("sampling produced empty bucket")
	}
	if intraSum/float64(intraN) >= interSum/float64(interN) {
		t.Errorf("intra-cluster mean distance %.0fkm >= inter %.0fkm",
			intraSum/float64(intraN)/1000, interSum/float64(interN)/1000)
	}
}
