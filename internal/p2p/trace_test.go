package p2p

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chain"
	"repro/internal/obs"
	"repro/internal/sim"
)

// floodOnce resets inventory, floods one coinbase tx from nodes[0], and
// returns the per-node first-seen times in slot order plus the run's
// traffic stats.
func floodOnce(t *testing.T, net *Network, nodes []*Node, seed int64) ([]sim.Time, Stats) {
	t.Helper()
	net.ResetInventory()
	before := net.Stats()
	seen := make([]sim.Time, len(nodes))
	net.OnTxFirstSeen = func(nd *Node, _ chain.Hash, at sim.Time) {
		seen[int(nd.ID()-nodes[0].ID())] = at
	}
	key, err := chain.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	tx := chain.Coinbase(uint64(seed), 1000, key.Address())
	if err := nodes[0].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	net.OnTxFirstSeen = nil
	return seen, net.Stats().Sub(before)
}

// TestTraceObservesWithoutPerturbing is the core telemetry contract at
// the p2p layer: a traced flood produces bit-identical first-seen times
// and traffic counters to an untraced one, while the tracer itself
// captures a consistent event stream (sends >= delivers, one first-seen
// per node, monotone virtual timestamps after canonical merge).
func TestTraceObservesWithoutPerturbing(t *testing.T) {
	const n = 60
	netA, nodesA := buildFloodNet(t, n, 3)
	netB, nodesB := buildFloodNet(t, n, 3)

	tr := obs.NewTracer(1<<14, 1)
	netB.EnableTrace(tr)

	seenA, statsA := floodOnce(t, netA, nodesA, 7)
	seenB, statsB := floodOnce(t, netB, nodesB, 7)

	for i := range seenA {
		if seenA[i] != seenB[i] {
			t.Fatalf("node %d first-seen diverged: untraced %v, traced %v", i, seenA[i], seenB[i])
		}
	}
	if statsA != statsB {
		t.Fatalf("stats diverged:\nuntraced %+v\ntraced   %+v", statsA, statsB)
	}

	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("traced flood recorded no events")
	}
	var sends, delivers, firstSeen int
	last := sim.Time(-1)
	for _, ev := range events {
		if ev.At < last {
			t.Fatalf("merged events not time-ordered: %v after %v", ev.At, last)
		}
		last = ev.At
		switch ev.Kind {
		case obs.KindSend:
			sends++
		case obs.KindDeliver:
			delivers++
		case obs.KindFirstSeen:
			firstSeen++
		}
	}
	if firstSeen != n {
		t.Fatalf("trace saw %d first-seen events, want %d", firstSeen, n)
	}
	if uint64(sends) != statsB.TotalMessages() {
		t.Fatalf("trace saw %d sends, stats counted %d", sends, statsB.TotalMessages())
	}
	if delivers == 0 || delivers > sends {
		t.Fatalf("trace saw %d delivers for %d sends", delivers, sends)
	}

	// Disabling detaches: a further flood records nothing new.
	netB.DisableTrace()
	recorded := tr.Len() + int(tr.Dropped())
	floodOnce(t, netB, nodesB, 8)
	if got := tr.Len() + int(tr.Dropped()); got != recorded {
		t.Fatalf("%d events recorded after DisableTrace", got-recorded)
	}
}

// TestTraceRecordAllocFree pins that a warmed flood allocates nothing,
// untraced and traced alike: the ring is preallocated, so tracing adds no
// allocation to the delivery path.
func TestTraceRecordAllocFree(t *testing.T) {
	net, nodes := buildFloodNet(t, 40, 2)
	key, err := chain.GenerateKey(rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	// One tx reused across runs: ResetInventory makes each flood
	// independent, and hoisting key/tx creation out of the measured
	// closure keeps its allocations out of the count.
	tx := chain.Coinbase(99, 1000, key.Address())
	flood := func() {
		net.ResetInventory()
		if err := nodes[0].SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the network's tables and the hash registry, then measure the
	// untraced steady state first and the traced one after it, each after
	// the same warm-up.
	for i := 0; i < 4; i++ {
		flood()
	}
	control := testing.AllocsPerRun(3, flood)
	tr := obs.NewTracer(1<<12, 1)
	net.EnableTrace(tr)
	for i := 0; i < 4; i++ {
		flood()
	}
	traced := testing.AllocsPerRun(3, flood)
	if control != 0 || traced != 0 {
		t.Fatalf("a warmed flood allocates %v/run untraced and %v/run traced, want 0 and 0", control, traced)
	}
	if tr.Len() == 0 {
		t.Fatal("trace recorded nothing during measured floods")
	}
}

// TestTraceRecordsConnections pins the connection kinds: a traced Connect
// records one KindConnect with the initiator first, and a traced RemoveNode
// one KindDisconnect per former peer, with the departing node first.
func TestTraceRecordsConnections(t *testing.T) {
	net, nodes := testNetwork(t, 5, nil)
	tr := obs.NewTracer(1<<8, 1)
	net.EnableTrace(tr)
	hub := nodes[0]
	for _, nd := range nodes[1:] {
		if err := net.Connect(hub.ID(), nd.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Connect(nodes[1].ID(), nodes[2].ID()); err != nil {
		t.Fatal(err)
	}
	net.RemoveNode(hub.ID())
	var connects, disconnects [][2]NodeID
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case obs.KindConnect:
			connects = append(connects, [2]NodeID{NodeID(ev.P1), NodeID(ev.P2)})
		case obs.KindDisconnect:
			disconnects = append(disconnects, [2]NodeID{NodeID(ev.P1), NodeID(ev.P2)})
		}
	}
	var hubEdges [][2]NodeID
	for _, nd := range nodes[1:] {
		hubEdges = append(hubEdges, [2]NodeID{hub.ID(), nd.ID()})
	}
	if want := append(slices.Clone(hubEdges), [2]NodeID{nodes[1].ID(), nodes[2].ID()}); !slices.Equal(connects, want) {
		t.Errorf("connects %v, want %v", connects, want)
	}
	if !slices.Equal(disconnects, hubEdges) {
		t.Errorf("disconnects %v, want one per former peer: %v", disconnects, hubEdges)
	}
	// Untraced, nothing is recorded.
	net.DisableTrace()
	recorded := tr.Len()
	net.Disconnect(nodes[1].ID(), nodes[2].ID())
	if tr.Len() != recorded {
		t.Errorf("an untraced Disconnect recorded %d events", tr.Len()-recorded)
	}
}
