package p2p

import (
	"math/rand"
	"testing"

	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/sim"
)

// buildFloodNet wires n nodes into a ring plus random chords — degree
// ~2×chords — using only the public API. This is the raw-overlay build
// the 100k-scale tests use: it exercises the same relay machinery as the
// experiment harness without paying for protocol bootstrap.
func buildFloodNet(tb testing.TB, n, chords int) (*Network, []*Node) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.PingInterval = 0
	net, err := NewNetwork(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	net.Reserve(n)
	placer := geo.DefaultPlacer()
	pr := net.Streams().Stream("placement")
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = net.AddNode(placer.Place(pr))
	}
	wire := rand.New(rand.NewSource(1))
	for i := range nodes {
		if err := net.Connect(nodes[i].ID(), nodes[(i+1)%n].ID()); err != nil {
			tb.Fatalf("ring connect: %v", err)
		}
		for c := 0; c < chords; c++ {
			j := wire.Intn(n)
			if j == i {
				continue
			}
			// Duplicate edges and full peers just skip; the graph stays
			// connected through the ring regardless.
			_ = net.Connect(nodes[i].ID(), nodes[j].ID())
		}
	}
	return net, nodes
}

// TestFlood100kFootprintBudget is the memory line the struct-of-arrays
// layout must hold: a 100k-node network floods one transaction to every
// node entirely in RAM, and afterwards the retained per-node hot state
// stays under a pinned bytes/node budget. Measured ~1.4 KB/node after a
// degree-16 flood (dominated by the adjacency table at 32 B/edge-side, the
// only per-peer state a node keeps: every peer loop walks it in place);
// pinned at 1.5 KB for slice growth-policy headroom across Go versions.
// The ceiling is what keeps the ROADMAP's million-node target plausible:
// node state for 1M nodes stays ~1.5 GB.
func TestFlood100kFootprintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node flood; skipped in -short")
	}
	const n = 100_000
	const budgetPerNode = 1536

	net, nodes := buildFloodNet(t, n, 7)
	reached := 0
	net.OnTxFirstSeen = func(*Node, chain.Hash, sim.Time) { reached++ }

	for run := 0; run < 2; run++ {
		net.ResetInventory()
		reached = 0
		key, err := chain.GenerateKey(rand.New(rand.NewSource(int64(run) + 5)))
		if err != nil {
			t.Fatal(err)
		}
		tx := chain.Coinbase(uint64(run)+1, 1000, key.Address())
		if err := nodes[run].SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if reached != n {
			t.Fatalf("run %d: flood reached %d of %d nodes", run, reached, n)
		}
	}

	footprint := net.NodeFootprintBytes()
	perNode := footprint / net.NumNodes()
	t.Logf("node hot state: %d bytes total, %d bytes/node", footprint, perNode)
	if perNode > budgetPerNode {
		t.Fatalf("per-node hot state %d bytes exceeds pinned budget %d", perNode, budgetPerNode)
	}
}
