package p2p_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestFloodAllocatesNothing: once a Bitcoin-random network has flooded, a
// measurement run's whole cycle — ResetInventory, SubmitTx and the Run that
// carries the transaction to every node — allocates nothing. The object a
// flood relays is filed once, in the network's table, which ResetInventory
// clears in place; a table remade per reset, or a per-node copy, shows here
// as allocations per run.
func TestFloodAllocatesNothing(t *testing.T) {
	const n = 400
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
	reached := 0
	net.OnTxFirstSeen = func(*p2p.Node, chain.Hash, sim.Time) { reached++ }
	flood := func() {
		net.ResetInventory()
		reached = 0
		if err := origin.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		flood()
	}
	if reached != n {
		t.Fatalf("a flood reached %d of %d nodes", reached, n)
	}
	if allocs := testing.AllocsPerRun(10, flood); allocs != 0 {
		t.Errorf("a warmed flood over %d nodes allocates %v per run", n, allocs)
	}
}
