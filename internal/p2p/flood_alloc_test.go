package p2p_test

import (
	"context"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/topology"
)

// floodNet builds a Bitcoin-random network of n nodes and runs its
// bootstrap. The last spare nodes are removed before the bootstrap and
// others take their slots, so that as many later RemoveNodes fit the slot
// free list without growing it. It returns the network and a flood from
// its first node: ResetInventory, SubmitTx and the Run that carries the
// transaction as far as it goes.
func floodNet(t *testing.T, n, spare int) (*p2p.Network, func()) {
	t.Helper()
	net, err := p2p.NewNetwork(p2p.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	placer := geo.DefaultPlacer()
	r := net.Streams().Stream("placement")
	ids := make([]p2p.NodeID, n)
	for i := range ids {
		ids[i] = net.AddNode(placer.Place(r)).ID()
	}
	for _, nd := range ids[n-spare:] {
		net.RemoveNode(nd)
	}
	for i := n - spare; i < n; i++ {
		ids[i] = net.AddNode(placer.Place(r)).ID()
	}
	if err := topology.NewRandom(net, topology.NewDNSSeed(), 0).Bootstrap(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	key, err := chain.GenerateKey(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	tx := chain.Coinbase(1, 1000, key.Address())
	origin, _ := net.Node(ids[0])
	return net, func() {
		net.ResetInventory()
		if err := origin.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFloodAllocatesNothing: once a Bitcoin-random network has flooded, a
// measurement run's whole cycle — ResetInventory, SubmitTx and the Run that
// carries the transaction to every node — allocates nothing. The object a
// flood relays is filed once, in the network's table, which ResetInventory
// clears in place; a table remade per reset, or a per-node copy, shows here
// as allocations. Ten floods are counted as one run, so that a buffer which
// grows once in several floods counts too, where a per-flood mean would
// round it away.
func TestFloodAllocatesNothing(t *testing.T) {
	const n, floods = 400, 10
	net, flood := floodNet(t, n, 0)
	reached := 0
	net.OnTxFirstSeen = func(*p2p.Node, chain.Hash, sim.Time) { reached++ }
	for i := 0; i < 4; i++ {
		reached = 0
		flood()
	}
	if reached != n {
		t.Fatalf("a flood reached %d of %d nodes", reached, n)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection mid-count allocates in the runtime
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < floods; i++ {
			flood()
		}
	}); allocs != 0 {
		t.Errorf("%d warmed floods over %d nodes allocate %v times", floods, n, allocs)
	}
}

// TestChurnedFloodAllocatesNothing: a flood in which a node leaves midway
// allocates nothing either. The leaver is the node that saw the
// transaction just before the flood's midpoint, removed from inside
// OnTxFirstSeen: the INVs it has sent land at nodes it is no longer a peer
// of, which find their sender by the scan and drop what they know of it,
// and the GETDATAs they send back, to a node that has gone, are dropped.
// The slot free list is warmed for every leaver first.
func TestChurnedFloodAllocatesNothing(t *testing.T) {
	const n, warm, floods = 400, 4, 10
	// AllocsPerRun runs its function once before the measured run.
	const leavers = warm + 2*floods
	net, flood := floodNet(t, n, leavers)
	reached, left := 0, 0
	var prev *p2p.Node
	net.OnTxFirstSeen = func(nd *p2p.Node, _ chain.Hash, _ sim.Time) {
		if reached++; reached == n/2 {
			net.RemoveNode(prev.ID())
			left++
		}
		prev = nd
	}
	churned := func() {
		reached = 0
		flood()
	}
	for i := 0; i < warm; i++ {
		churned()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection mid-count allocates in the runtime
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < floods; i++ {
			churned()
		}
	}); allocs != 0 {
		t.Errorf("%d churned floods over %d nodes allocate %v times", floods, n, allocs)
	}
	if left != leavers || net.NumNodes() != n-leavers {
		t.Fatalf("%d nodes left over %d floods; %d remain", left, leavers, net.NumNodes())
	}
	if dropped := net.Stats().Dropped; dropped == 0 {
		t.Fatal("no message was dropped at a leaver")
	}
}
