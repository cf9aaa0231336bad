package p2p

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// testNetwork builds a network of n nodes placed around the world.
func testNetwork(t testing.TB, n int, mutate func(*Config)) (*Network, []*Node) {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	placer := geo.DefaultPlacer()
	r := net.Streams().Stream("placement")
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = net.AddNode(placer.Place(r))
	}
	return net, nodes
}

// connectRing wires nodes into a ring so gossip reaches everyone.
func connectRing(t testing.TB, net *Network, nodes []*Node) {
	t.Helper()
	for i := range nodes {
		next := nodes[(i+1)%len(nodes)]
		if err := net.Connect(nodes[i].ID(), next.ID()); err != nil {
			t.Fatalf("Connect(%d,%d): %v", nodes[i].ID(), next.ID(), err)
		}
	}
}

func testTx(t testing.TB, seed int64) *chain.Tx {
	t.Helper()
	key, err := chain.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return chain.Coinbase(uint64(seed), 1000, key.Address())
}

func TestNewNetworkValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxOutbound = 0
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("accepted MaxOutbound=0")
	}
	cfg = DefaultConfig()
	cfg.MaxOutbound = 200
	cfg.MaxPeers = 100
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("accepted MaxOutbound > MaxPeers")
	}
	cfg = DefaultConfig()
	cfg.Latency.PingBytes = 0
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("accepted invalid latency params")
	}
	// At 1e-4 B/s a ping takes 89 h to send: no peer entry holds the
	// baseline. At 1e-3 B/s, 8.9 h, it fits.
	cfg = DefaultConfig()
	cfg.Latency.RateBytesPerSec = 1e-4
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("accepted link baselines a peer entry cannot hold")
	}
	cfg.Latency.RateBytesPerSec = 1e-3
	if _, err := NewNetwork(cfg); err != nil {
		t.Errorf("refused an 8.9 h baseline: %v", err)
	}
}

func TestConnectDisconnectLifecycle(t *testing.T) {
	net, nodes := testNetwork(t, 3, nil)
	a, b, c := nodes[0], nodes[1], nodes[2]

	if err := net.Connect(a.ID(), b.ID()); err != nil {
		t.Fatal(err)
	}
	if !a.IsPeer(b.ID()) || !b.IsPeer(a.ID()) {
		t.Fatal("connection not bidirectional")
	}
	if a.Outbound() != 1 || b.Outbound() != 0 {
		t.Errorf("outbound counts = (%d,%d), want (1,0)", a.Outbound(), b.Outbound())
	}
	if err := net.Connect(a.ID(), b.ID()); !errors.Is(err, ErrAlreadyPeers) {
		t.Errorf("duplicate connect = %v, want ErrAlreadyPeers", err)
	}
	if err := net.Connect(a.ID(), a.ID()); !errors.Is(err, ErrSelfConnect) {
		t.Errorf("self connect = %v, want ErrSelfConnect", err)
	}
	if err := net.Connect(a.ID(), NodeID(999)); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown connect = %v, want ErrUnknownNode", err)
	}

	var disconnects [][2]NodeID
	net.OnDisconnect = func(x, y NodeID) { disconnects = append(disconnects, [2]NodeID{x, y}) }
	net.Disconnect(a.ID(), b.ID())
	if a.IsPeer(b.ID()) || b.IsPeer(a.ID()) {
		t.Error("edge survives Disconnect")
	}
	if len(disconnects) != 1 {
		t.Errorf("OnDisconnect fired %d times, want 1", len(disconnects))
	}
	net.Disconnect(a.ID(), c.ID()) // never connected: no-op
	if len(disconnects) != 1 {
		t.Error("no-op disconnect fired callback")
	}
}

func TestConnectCapacityLimits(t *testing.T) {
	net, nodes := testNetwork(t, 5, func(c *Config) {
		c.MaxOutbound = 2
		c.MaxPeers = 3
	})
	hub := nodes[0]
	// Outbound limit: hub can only initiate 2.
	if err := net.Connect(hub.ID(), nodes[1].ID()); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(hub.ID(), nodes[2].ID()); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(hub.ID(), nodes[3].ID()); !errors.Is(err, ErrOutboundLimit) {
		t.Errorf("3rd outbound = %v, want ErrOutboundLimit", err)
	}
	// Inbound up to MaxPeers: one more fits (2 outbound + 1 inbound).
	if err := net.Connect(nodes[3].ID(), hub.ID()); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(nodes[4].ID(), hub.ID()); !errors.Is(err, ErrPeerCapacity) {
		t.Errorf("overfull inbound = %v, want ErrPeerCapacity", err)
	}
}

// tableHub returns a network of nodes 1–9 where node 1 has connected to 5,
// 2 and 9, dropped 2, then connected to 7 — which takes 2's freed position —
// and to 3, which takes a new one at the end: its table reads 5, 7, 9, 3.
func tableHub(t *testing.T) (*Network, *Node) {
	t.Helper()
	net, nodes := testNetwork(t, 9, nil)
	hub := nodes[0]
	connect := func(id NodeID) {
		if err := net.Connect(hub.ID(), id); err != nil {
			t.Fatal(err)
		}
	}
	connect(5)
	connect(2)
	connect(9)
	net.Disconnect(hub.ID(), 2)
	connect(7)
	connect(3)
	return net, hub
}

// TestAnnounceWalksTableOrder pins the INV fan-out to adjacency-table
// order: position order, not ID order, with a recycled position keeping
// its place in the walk.
func TestAnnounceWalksTableOrder(t *testing.T) {
	net, hub := tableHub(t)
	if pos := hub.peerPos(net.nodes[7]); pos != 1 {
		t.Fatalf("peer 7 at position %d, want 2's recycled position 1", pos)
	}
	tr := obs.NewTracer(1<<10, 1)
	net.EnableTrace(tr)
	if err := hub.SubmitTx(testTx(t, 5)); err != nil {
		t.Fatal(err)
	}
	var to []NodeID
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindSend && wire.Command(ev.Code) == wire.CmdInv && NodeID(ev.P1) == hub.ID() {
			to = append(to, NodeID(ev.P2))
		}
	}
	if want := []NodeID{5, 7, 9, 3}; !slices.Equal(to, want) {
		t.Errorf("hub announced to %v, want table order %v", to, want)
	}
}

// TestPeersStaysAscending pins what the table order leaves alone: Peers
// hands out ascending IDs in a copy the caller owns, and EachPeer visits
// every peer once.
func TestPeersStaysAscending(t *testing.T) {
	_, hub := tableHub(t)
	want := []NodeID{3, 5, 7, 9}
	got := hub.Peers()
	if !slices.Equal(got, want) {
		t.Fatalf("Peers() = %v, want %v", got, want)
	}
	got[0] = 42
	if again := hub.Peers(); !slices.Equal(again, want) {
		t.Fatalf("Peers() after the caller wrote its copy = %v, want %v", again, want)
	}
	var visited []NodeID
	hub.EachPeer(func(id NodeID) bool {
		visited = append(visited, id)
		return true
	})
	slices.Sort(visited)
	if !slices.Equal(visited, want) {
		t.Errorf("EachPeer visited %v (sorted), want each of %v once", visited, want)
	}
	calls := 0
	hub.EachPeer(func(NodeID) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("EachPeer went on for %d calls after f returned false", calls)
	}
}

func TestRemoveNodeTearsDownEdges(t *testing.T) {
	net, nodes := testNetwork(t, 3, nil)
	connectRing(t, net, nodes)
	fired := 0
	net.OnDisconnect = func(a, b NodeID) { fired++ }
	net.RemoveNode(nodes[0].ID())
	if _, ok := net.Node(nodes[0].ID()); ok {
		t.Error("removed node still present")
	}
	if nodes[1].IsPeer(nodes[0].ID()) || nodes[2].IsPeer(nodes[0].ID()) {
		t.Error("peers still reference removed node")
	}
	if fired != 2 {
		t.Errorf("OnDisconnect fired %d, want 2", fired)
	}
	if got := net.NumNodes(); got != 2 {
		t.Errorf("NumNodes = %d, want 2", got)
	}
	net.RemoveNode(nodes[0].ID()) // idempotent
}

func TestTxPropagatesToAllNodes(t *testing.T) {
	net, nodes := testNetwork(t, 20, nil)
	connectRing(t, net, nodes)
	tx := testTx(t, 1)

	received := make(map[NodeID]sim.Time)
	net.OnTxFirstSeen = func(nd *Node, h chain.Hash, at sim.Time) {
		received[nd.ID()] = at
	}
	if err := nodes[0].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(received) != len(nodes) {
		t.Fatalf("tx reached %d of %d nodes", len(received), len(nodes))
	}
	// The origin sees it at time zero; everyone else strictly later.
	if received[nodes[0].ID()] != 0 {
		t.Errorf("origin first-seen = %v, want 0", received[nodes[0].ID()])
	}
	for _, nd := range nodes[1:] {
		if received[nd.ID()] <= 0 {
			t.Errorf("node %d first-seen = %v, want > 0", nd.ID(), received[nd.ID()])
		}
		if _, ok := nd.FirstSeen(tx.ID()); !ok {
			t.Errorf("node %d FirstSeen missing", nd.ID())
		}
	}
}

func TestTxPropagationDeterministic(t *testing.T) {
	run := func() map[NodeID]sim.Time {
		net, nodes := testNetwork(t, 15, nil)
		connectRing(t, net, nodes)
		rec := make(map[NodeID]sim.Time)
		net.OnTxFirstSeen = func(nd *Node, h chain.Hash, at sim.Time) { rec[nd.ID()] = at }
		if err := nodes[0].SubmitTx(testTx(t, 7)); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run sizes differ: %d vs %d", len(a), len(b))
	}
	for id, at := range a {
		if b[id] != at {
			t.Fatalf("node %d time differs: %v vs %v", id, at, b[id])
		}
	}
}

func TestNoDuplicateTxDelivery(t *testing.T) {
	// In a complete graph every node hears INVs from everyone, but must
	// download the tx body exactly once.
	net, nodes := testNetwork(t, 6, nil)
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if err := net.Connect(nodes[i].ID(), nodes[j].ID()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := nodes[0].SubmitTx(testTx(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	txMsgs := st.Messages[wire.CmdTx]
	// 5 receivers -> exactly 5 tx bodies (one each).
	if txMsgs != 5 {
		t.Errorf("tx bodies sent = %d, want 5", txMsgs)
	}
	getData := st.Messages[wire.CmdGetData]
	if getData != 5 {
		t.Errorf("getdata sent = %d, want 5 (one per receiver)", getData)
	}
}

func TestVerificationDelayOrdersPropagation(t *testing.T) {
	// With a huge verification cost, a two-hop neighbour must receive the
	// tx at least two verification delays after origin.
	const bigCost = 500 * time.Millisecond
	net, nodes := testNetwork(t, 3, func(c *Config) {
		c.VerifyCost = chain.VerifyCostModel{Base: bigCost}
	})
	connectRing(t, net, nodes) // ring of 3 = also 2 hops max
	rec := make(map[NodeID]sim.Time)
	net.OnTxFirstSeen = func(nd *Node, h chain.Hash, at sim.Time) { rec[nd.ID()] = at }
	if err := nodes[0].SubmitTx(testTx(t, 3)); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes[1:] {
		if rec[nd.ID()] < sim.Time(bigCost) {
			t.Errorf("node %d received at %v, before one verify delay %v", nd.ID(), rec[nd.ID()], bigCost)
		}
	}
}

// spendOf returns a transaction spending op; transactions of different
// values spending one output are the two sides of a double-spend race. No
// node checks a signature, so it is unsigned.
func spendOf(op chain.Outpoint, value chain.Amount) *chain.Tx {
	return &chain.Tx{
		Version: 1,
		Inputs:  []chain.TxIn{{PrevOut: op}},
		Outputs: []chain.TxOut{{Value: value, To: chain.Address{1}}},
	}
}

// TestFirstSpendWins floods two spends of one output from opposite ends of
// a ring. Every node keeps the one that reached it first and rejects the
// other, so it holds exactly one of them, and it never announces the one it
// rejected. The rule lasts one inventory generation: after ResetInventory a
// third spend of the output floods everywhere.
func TestFirstSpendWins(t *testing.T) {
	net, nodes := testNetwork(t, 20, nil)
	connectRing(t, net, nodes)
	// Traced, every INV travels as a record in the arena, where the stepping
	// loop below can read who sends it and for what.
	net.EnableTrace(obs.NewTracer(1<<10, 1))
	op := chain.Outpoint{TxID: testTx(t, 1).ID()}
	a, b := spendOf(op, 1), spendOf(op, 2)
	if err := nodes[0].SubmitTx(a); err != nil {
		t.Fatal(err)
	}
	if err := nodes[10].SubmitTx(b); err != nil {
		t.Fatal(err)
	}
	rival := map[*chain.Tx]*chain.Tx{a: b, b: a}
	invs := 0
	for {
		ran, err := net.sched.RunN(1)
		if err != nil {
			t.Fatal(err)
		}
		if ran == 0 {
			break
		}
		for i := range net.dc.flight {
			d := &net.dc.flight[i]
			if d.cmd != wire.CmdInv || d.tx == nil {
				continue
			}
			invs++
			if _, ok := d.src.FirstSeen(rival[d.tx].ID()); ok {
				t.Fatalf("node %d announces the spend of value %d while holding its rival", d.src.ID(), d.tx.Outputs[0].Value)
			}
		}
	}
	if invs == 0 {
		t.Fatal("no INV seen in flight")
	}
	var holdA, holdB int
	for _, nd := range nodes {
		_, hasA := nd.FirstSeen(a.ID())
		_, hasB := nd.FirstSeen(b.ID())
		if hasA == hasB {
			t.Fatalf("node %d holds A %v and B %v; want exactly one", nd.ID(), hasA, hasB)
		}
		if hasA {
			holdA++
		} else {
			holdB++
		}
	}
	if holdA == 0 || holdB == 0 {
		t.Fatalf("A won %d nodes and B %d: the race was not a race", holdA, holdB)
	}
	if err := nodes[0].SubmitTx(b); !errors.Is(err, errConflict) {
		t.Fatalf("B resubmitted where A won: error %v, want errConflict", err)
	}

	net.ResetInventory()
	c := spendOf(op, 3)
	if err := nodes[5].SubmitTx(c); err != nil {
		t.Fatalf("a spend after the reset: %v", err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if _, ok := nd.FirstSeen(c.ID()); !ok {
			t.Fatalf("node %d never accepted the spend made after the reset", nd.ID())
		}
	}
}

func TestProbeMeasuresRTT(t *testing.T) {
	net, nodes := testNetwork(t, 2, nil)
	a, b := nodes[0], nodes[1]
	base, ok := net.BaseRTT(a.ID(), b.ID())
	if !ok {
		t.Fatal("BaseRTT failed")
	}

	var got time.Duration
	net.OnRTT = func(prober *Node, target NodeID, rtt time.Duration) {
		if prober != a || target != b.ID() {
			t.Errorf("OnRTT for %d probing %d, want %d probing %d", prober.ID(), target, a.ID(), b.ID())
		}
		got = rtt
	}
	rtts := watchRTTs(net)
	a.ProbeN([]NodeID{b.ID()}, 1, 0)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	est, ok := rtts.estimator(a, b.ID())
	if !ok || est.Samples() != 1 {
		t.Error("estimator not updated by probe")
	}
	if got <= 0 {
		t.Fatal("probe returned non-positive RTT")
	}
	// The sampled RTT should be near the link base (within noise bounds:
	// spikes can inflate, so allow generous headroom but require ballpark).
	if got < base/2 || got > base*5 {
		t.Errorf("measured RTT %v far from base %v", got, base)
	}
}

func TestProbeNFeedsEstimator(t *testing.T) {
	net, nodes := testNetwork(t, 2, nil)
	a, b := nodes[0], nodes[1]
	rtts := watchRTTs(net)
	a.ProbeN([]NodeID{b.ID()}, 5, 10*time.Millisecond)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	est, ok := rtts.estimator(a, b.ID())
	if !ok || est.Samples() != 5 {
		t.Fatalf("estimator after 5 probes: %v, %v samples; want 5", ok, est.Samples())
	}
	if !est.Ready() {
		t.Error("estimator not Ready after 5 probes")
	}
}

func TestPingToChurnedNodeIsLost(t *testing.T) {
	net, nodes := testNetwork(t, 2, nil)
	a, b := nodes[0], nodes[1]
	fired := false
	net.OnRTT = func(*Node, NodeID, time.Duration) { fired = true }
	a.ProbeN([]NodeID{b.ID()}, 1, 0)
	if _, err := net.Scheduler().RunN(1); err != nil { // the round: the ping leaves
		t.Fatal(err)
	}
	net.RemoveNode(b.ID()) // leaves before the ping arrives
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if a.FoldPongs(); fired {
		t.Error("probe completed against removed node")
	}
	if net.Stats().Dropped == 0 {
		t.Error("drop not counted")
	}
}

// TestProbeOfDepartedNodeLeavesNothing: a ping that cannot leave — under
// churn, every re-probe of a node that has gone — is counted as dropped,
// never completes, and leaves not a byte on the prober; a departed prober
// sends nothing, and a ping whose target leaves while it is in flight dies
// at the empty slot.
func TestProbeOfDepartedNodeLeavesNothing(t *testing.T) {
	net, nodes := testNetwork(t, 3, nil)
	a, gone, c := nodes[0], nodes[1].ID(), nodes[2]
	net.RemoveNode(gone)
	footprint := net.NodeFootprintBytes()
	net.OnRTT = func(*Node, NodeID, time.Duration) { t.Error("probe of a departed node completed") }
	a.ProbeN([]NodeID{gone}, 1000, time.Millisecond)
	if due := net.Scheduler().Len(); due != 1000 {
		t.Fatalf("%d events queued for 1000 probe rounds not yet due, want 1000", due)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().Dropped; got != 1000 {
		t.Fatalf("Dropped = %d, want 1000", got)
	}
	a.FoldPongs() // the hook fails the test if anything answered
	if got := net.NodeFootprintBytes(); got != footprint {
		t.Fatalf("NodeFootprintBytes %d after 1000 dead probes, was %d", got, footprint)
	}
	// The same from the other side: a departed prober sends nothing.
	net.RemoveNode(a.ID())
	a.ProbeN([]NodeID{c.ID()}, 1, 0)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats(); got.Dropped != 1000 || got.Messages[wire.CmdPing] != 0 {
		t.Fatalf("departed prober: Dropped %d, %d pings sent", got.Dropped, got.Messages[wire.CmdPing])
	}
	// A ping whose target leaves under it dies at the empty slot.
	d := net.AddNode(c.Location())
	c.ProbeN([]NodeID{d.ID()}, 1, 0)
	if _, err := net.Scheduler().RunN(1); err != nil {
		t.Fatal(err)
	}
	net.RemoveNode(d.ID())
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats(); got.Dropped != 1001 || got.Messages[wire.CmdPing] != 1 || got.Messages[wire.CmdPong] != 0 {
		t.Fatalf("ping to a leaving node: Dropped %d, %d pings, %d pongs", got.Dropped, got.Messages[wire.CmdPing], got.Messages[wire.CmdPong])
	}
	c.FoldPongs()
}

// pongTableBytes is what the network's pong table adds to
// NodeFootprintBytes: its lists, empty or not, keep their capacity while
// few wait (pongTable).
func (n *Network) pongTableBytes() int {
	total := uintptr(cap(n.pongs.bySlot)) * unsafe.Sizeof(int32(0))
	for _, list := range n.pongs.lists {
		total += uintptr(cap(list)) * unsafe.Sizeof(pongTicket{})
	}
	return int(total)
}

// TestLostProbesLeaveNothing: whatever becomes of a probe — its ping or its
// pong lost on the way (Config.LossProb), its target or its prober gone by
// the time a leg lands — the network ends up holding no pong ticket, the
// nodes are no larger for the probes that passed through them, and OnRTT
// fires for fewer round trips than pongs were sent and never for a target
// that left under its pings. That it fires once per pong that lands, in
// landing order, the probe twin pins (TestPongTicketsMatchTracedProbes).
func TestLostProbesLeaveNothing(t *testing.T) {
	net, nodes := testNetwork(t, 6, func(c *Config) { c.LossProb = 0.2 })
	stable, target, prober := nodes[:4], nodes[4], nodes[5]
	fired := map[[2]NodeID]int{}
	net.OnRTT = func(p *Node, to NodeID, _ time.Duration) { fired[[2]NodeID{p.ID(), to}]++ }
	ids := func(nds []*Node, except *Node) []NodeID {
		var out []NodeID
		for _, nd := range nds {
			if nd != except {
				out = append(out, nd.ID())
			}
		}
		return out
	}
	// round sends per probes along every ordered pair of stable nodes.
	round := func(per int) {
		for _, from := range stable {
			from.ProbeN(ids(stable, from), per, time.Millisecond)
		}
	}
	// run drains the queue and folds every node, which takes in every
	// pong ticket: the nodes' state is then what the probes left.
	run := func() int {
		t.Helper()
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
		for _, nd := range nodes {
			nd.FoldPongs()
		}
		for slot, li := range net.pongs.bySlot {
			if li != 0 {
				t.Fatalf("prober in slot %d holds %d pong tickets with nothing in flight", slot, len(net.pongs.of(int32(slot))))
			}
		}
		return net.NodeFootprintBytes() - net.pongTableBytes()
	}
	// Enough that every pair has measured before the footprint is read.
	round(20)
	footprint := run() - int(2*unsafe.Sizeof(Node{}))

	round(830) // 12 pairs: 9,960 probes
	for _, from := range stable {
		from.ProbeN([]NodeID{target.ID()}, 20, 50*time.Millisecond)
	}
	prober.ProbeN(ids(stable, nil), 20, 50*time.Millisecond)
	// The target leaves under the pings to it; the prober leaves with some
	// of its pongs landed, some on the way back and some rounds unsent.
	if err := net.RunUntil(context.Background(), net.Now()+sim.Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	net.RemoveNode(target.ID())
	for net.Stats().Messages[wire.CmdPong] < 4000 {
		if _, err := net.Scheduler().RunN(1); err != nil {
			t.Fatal(err)
		}
	}
	net.RemoveNode(prober.ID())
	if got := run(); got != footprint {
		t.Fatalf("NodeFootprintBytes %d after 10,000 probes, was %d", got, footprint)
	}
	calls := 0
	for _, n := range fired {
		calls += n
	}
	st := net.Stats()
	if uint64(calls) >= st.Messages[wire.CmdPong] || st.Lost == 0 || st.Dropped == 0 {
		t.Fatalf("OnRTT fired %d times (%d pongs sent, %d messages lost, %d dropped)",
			calls, st.Messages[wire.CmdPong], st.Lost, st.Dropped)
	}
	if n := fired[[2]NodeID{stable[0].ID(), target.ID()}]; n != 0 {
		t.Fatalf("OnRTT fired %d times for the target that left under its pings", n)
	}
	if fired[[2]NodeID{prober.ID(), stable[0].ID()}] == 0 {
		t.Fatal("the prober left before any of its pongs landed")
	}
}

func TestResetInventoryAllowsReinjection(t *testing.T) {
	net, nodes := testNetwork(t, 5, nil)
	connectRing(t, net, nodes)
	tx := testTx(t, 4)
	count := 0
	net.OnTxFirstSeen = func(*Node, chain.Hash, sim.Time) { count++ }
	if err := nodes[0].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("first run reached %d nodes, want 5", count)
	}
	net.ResetInventory()
	count = 0
	if err := nodes[1].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("after reset, tx reached %d nodes, want 5", count)
	}
}

func TestStatsAccounting(t *testing.T) {
	net, nodes := testNetwork(t, 3, nil)
	connectRing(t, net, nodes)
	if err := nodes[0].SubmitTx(testTx(t, 5)); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.TotalMessages() == 0 || st.TotalBytes() == 0 {
		t.Fatal("no traffic counted")
	}
	if st.Messages[wire.CmdInv] == 0 {
		t.Error("INV traffic missing")
	}
	// Handshake traffic counted at Connect time.
	if st.Messages[wire.CmdVersion] != 6 { // 3 edges x 2 versions
		t.Errorf("version msgs = %d, want 6", st.Messages[wire.CmdVersion])
	}
	// Snapshot subtraction.
	prev := st
	nodes[0].ProbeN([]NodeID{nodes[1].ID()}, 1, 0)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	delta := net.Stats().Sub(prev)
	msgs, bytes := delta.PingTraffic()
	if msgs != 2 || bytes == 0 {
		t.Errorf("ping delta = %d msgs %d bytes, want 2 msgs", msgs, bytes)
	}
	if delta.Messages[wire.CmdInv] != 0 {
		t.Error("stale INV counts in delta")
	}
	if net.Stats().String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestBaseRTTSymmetricStable(t *testing.T) {
	net, nodes := testNetwork(t, 2, nil)
	ab, ok1 := net.BaseRTT(nodes[0].ID(), nodes[1].ID())
	ba, ok2 := net.BaseRTT(nodes[1].ID(), nodes[0].ID())
	if !ok1 || !ok2 {
		t.Fatal("BaseRTT lookup failed")
	}
	if ab != ba {
		t.Errorf("BaseRTT asymmetric: %v vs %v", ab, ba)
	}
	if _, ok := net.BaseRTT(nodes[0].ID(), 999); ok {
		t.Error("BaseRTT for unknown node succeeded")
	}
}

// edgesOf lists every connection of the network once, lower ID first.
func edgesOf(net *Network) [][2]NodeID {
	var out [][2]NodeID
	for _, a := range net.NodeIDs() {
		nd, _ := net.Node(a)
		for _, b := range nd.Peers() {
			if a < b {
				out = append(out, [2]NodeID{a, b})
			}
		}
	}
	return out
}

// TestPeerLinkMatchesBaseRTT pins the link baseline the two peer entries
// of an edge hold: symmetric, equal to what BaseRTT draws for the pair,
// unchanged by a disconnect + reconnect — and drawn exactly once per edge
// per connection, whichever side uses it first.
func TestPeerLinkMatchesBaseRTT(t *testing.T) {
	net, nodes := testNetwork(t, 40, nil)
	r := net.Streams().Stream("wire")
	ids := net.NodeIDs()
	for _, nd := range nodes {
		for k := 0; k < 5; k++ {
			_ = net.Connect(nd.ID(), ids[r.Intn(len(ids))])
		}
	}
	edges := edgesOf(net)
	// Nothing in this test sends by ID or probes, so every link draw is a
	// peer entry's until BaseRTT, which draws on every call
	// (TestProbeNCarriedHandles counts a ProbeN's).
	if net.linkDraws != 0 {
		t.Fatalf("Connect drew %d links; resolution must stay lazy", net.linkDraws)
	}

	// check verifies every resolved edge against BaseRTT and returns how
	// many are resolved.
	check := func(stage string) (resolved int) {
		t.Helper()
		for _, e := range edges {
			na, _ := net.Node(e[0])
			nb, _ := net.Node(e[1])
			ea, eb := &na.peerTab[na.peerPos(nb)], &nb.peerTab[nb.peerPos(na)]
			if na.peerTab[eb.rpos()].node != nb || nb.peerTab[ea.rpos()].node != na {
				t.Fatalf("%s: edge %v reverse positions do not point back", stage, e)
			}
			if ea.outbound() == eb.outbound() {
				t.Fatalf("%s: edge %v has %v on both sides for outbound", stage, e, ea.outbound())
			}
			if ea.base() != eb.base() {
				t.Fatalf("%s: edge %v baselines differ: %v vs %v", stage, e, ea.base(), eb.base())
			}
			if ea.base() == 0 {
				continue
			}
			resolved++
			ab, _ := net.BaseRTT(e[0], e[1])
			ba, _ := net.BaseRTT(e[1], e[0])
			if ea.base() != ab || ab != ba {
				t.Fatalf("%s: edge %v: entries hold %v, BaseRTT %v/%v", stage, e, ea.base(), ab, ba)
			}
		}
		return resolved
	}

	// A flood resolves the edges it uses, each once although both ends send.
	if err := nodes[0].SubmitTx(testTx(t, 11)); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	used := int(net.linkDraws)
	if got := check("after flood"); used == 0 || got != used || int(net.linkDraws) != used+2*got {
		t.Fatalf("flood over %d edges: %d draws, %d edges resolved, %d draws after two BaseRTT each", len(edges), used, got, net.linkDraws)
	}

	// Reconnecting drops the baseline with the entry; the next use draws
	// it again — same value, one more draw.
	redo := edges[:len(edges)/2]
	for _, e := range redo {
		net.Disconnect(e[0], e[1])
		if err := net.ConnectUnbounded(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := check("after reconnect"); got > len(edges)-len(redo) {
		t.Fatalf("reconnecting %d of %d edges left %d resolved", len(redo), len(edges), got)
	}
}

// TestChurnLeavesNoLinkState pins that a connection's link state dies
// with it: after floods under churn every free adjacency position holds
// nothing but its free-list link, the free list threads exactly the free
// positions, and a departed node holds none.
func TestChurnLeavesNoLinkState(t *testing.T) {
	net, nodes := testNetwork(t, 30, nil)
	connectRing(t, net, nodes)
	for i := range nodes {
		_ = net.Connect(nodes[i].ID(), nodes[(i+7)%len(nodes)].ID())
	}
	for round := 0; round < 5; round++ {
		net.ResetInventory()
		if err := nodes[(3*round+1)%10].SubmitTx(testTx(t, int64(20+round))); err != nil {
			t.Fatal(err)
		}
		// Cut an edge and drop a node with the flood in flight.
		if err := net.RunUntil(context.Background(), net.Now()+sim.Time(80*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		net.Disconnect(nodes[round].ID(), nodes[round+1].ID())
		net.RemoveNode(nodes[29-round].ID())
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range nodes {
		free := 0
		for _, e := range nd.peerTab {
			if e.node == nil {
				free++
				if e.word > uint64(len(nd.peerTab)) {
					t.Fatalf("node %d: freed position keeps state %+v", nd.ID(), e)
				}
			}
		}
		if listed := freeListLen(t, nd); listed != free {
			t.Fatalf("node %d: %d empty positions, %d on the free list", nd.ID(), free, listed)
		}
		if _, live := net.Node(nd.ID()); !live && nd.NumPeers() != 0 {
			t.Fatalf("departed node %d keeps %d peer entries", nd.ID(), nd.NumPeers())
		}
	}
}

func TestNodeIDsSorted(t *testing.T) {
	net, _ := testNetwork(t, 10, nil)
	ids := net.NodeIDs()
	if len(ids) != 10 {
		t.Fatalf("NodeIDs len = %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("NodeIDs not ascending")
		}
	}
}

func BenchmarkTxFlood100Nodes(b *testing.B) {
	net, nodes := testNetwork(b, 100, nil)
	r := net.Streams().Stream("bench")
	ids := net.NodeIDs()
	for _, nd := range nodes {
		for k := 0; k < 4; k++ {
			target := ids[r.Intn(len(ids))]
			_ = net.Connect(nd.ID(), target)
		}
	}
	tx := testTx(b, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ResetInventory()
		if err := nodes[i%len(nodes)].SubmitTx(tx); err != nil {
			b.Fatal(err)
		}
		if err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTxPropagationDeterministicRandomGraph(t *testing.T) {
	// A denser random graph exercises multi-peer announce ordering, which
	// must be stable across runs for determinism.
	run := func() map[NodeID]sim.Time {
		net, nodes := testNetwork(t, 40, nil)
		r := net.Streams().Stream("wire")
		ids := net.NodeIDs()
		for _, nd := range nodes {
			for k := 0; k < 5; k++ {
				_ = net.Connect(nd.ID(), ids[r.Intn(len(ids))])
			}
		}
		rec := make(map[NodeID]sim.Time)
		net.OnTxFirstSeen = func(nd *Node, h chain.Hash, at sim.Time) { rec[nd.ID()] = at }
		if err := nodes[0].SubmitTx(testTx(t, 11)); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run sizes differ: %d vs %d", len(a), len(b))
	}
	for id, at := range a {
		if b[id] != at {
			t.Fatalf("node %d time differs: %v vs %v", id, at, b[id])
		}
	}
}

func TestLossInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossProb = 1.5
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("accepted LossProb > 1")
	}
	cfg = DefaultConfig()
	cfg.LossProb = -0.1
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("accepted negative LossProb")
	}

	// Heavy loss: some messages must be recorded as Lost, and the flood
	// can stall short of full coverage.
	net, nodes := testNetwork(t, 30, func(c *Config) { c.LossProb = 0.4 })
	connectRing(t, net, nodes)
	count := 0
	net.OnTxFirstSeen = func(*Node, chain.Hash, sim.Time) { count++ }
	if err := nodes[0].SubmitTx(testTx(t, 21)); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if net.Stats().Lost == 0 {
		t.Error("no messages recorded lost at 40% loss")
	}
	if count == 30 {
		t.Log("flood survived 40% loss on a ring (possible but unlikely)")
	}
}

func TestBlockRelay(t *testing.T) {
	net, nodes := testNetwork(t, 15, nil)
	connectRing(t, net, nodes)

	key, err := chain.GenerateKey(rand.New(rand.NewSource(50)))
	if err != nil {
		t.Fatal(err)
	}
	cb := chain.Coinbase(1, 1000, key.Address())
	blk := &chain.Block{
		Header: chain.BlockHeader{Version: 1, MerkleRoot: chain.MerkleRoot([]*chain.Tx{cb}), TimeUnix: 5, TargetBits: 4},
		Txs:    []*chain.Tx{cb},
	}
	if !blk.Mine(1 << 20) {
		t.Fatal("mining failed")
	}

	received := make(map[NodeID]sim.Time)
	net.OnBlockFirstSeen = func(nd *Node, h chain.Hash, at sim.Time) { received[nd.ID()] = at }
	if err := nodes[0].SubmitBlock(blk); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(received) != 15 {
		t.Fatalf("block reached %d of 15 nodes", len(received))
	}
	for _, nd := range nodes {
		if !nd.HasBlock(blk.Header.Hash()) {
			t.Fatalf("node %d missing block body", nd.ID())
		}
	}
	// Exactly 14 block bodies moved (one per receiver).
	if got := net.Stats().Messages[wire.CmdBlock]; got != 14 {
		t.Errorf("block bodies sent = %d, want 14", got)
	}
}

func TestBlockRelayRejectsBadPoW(t *testing.T) {
	net, nodes := testNetwork(t, 3, nil)
	connectRing(t, net, nodes)
	key, err := chain.GenerateKey(rand.New(rand.NewSource(51)))
	if err != nil {
		t.Fatal(err)
	}
	cb := chain.Coinbase(1, 10, key.Address())
	bad := &chain.Block{
		Header: chain.BlockHeader{TargetBits: 32, MerkleRoot: chain.MerkleRoot([]*chain.Tx{cb})},
		Txs:    []*chain.Tx{cb},
	}
	if err := nodes[0].SubmitBlock(bad); err == nil {
		t.Error("block without PoW accepted")
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if nodes[1].HasBlock(bad.Header.Hash()) {
		t.Error("invalid block propagated")
	}
}

// TestResetInventoryNoCrossRunLeakage pins the generation-bump reset:
// every injection on a reused network must behave as one on a fresh
// network would, whatever its delays. Any stale first-sight state, holder
// bit or in-flight GETDATA marker surviving a reset would suppress the
// next run's first-seen events or its requests: in each run every node
// but the origin asks for the transaction exactly once and gets it exactly
// once. (The runs' message counts need not match: the keyed delivery
// sequence runs on across a reset, so their delays, and with them which
// INVs cross, differ.)
func TestResetInventoryNoCrossRunLeakage(t *testing.T) {
	net, nodes := testNetwork(t, 8, nil)
	connectRing(t, net, nodes)
	for i := range nodes {
		// Chords so relay suppression (holder bits) is actually exercised.
		if err := net.Connect(nodes[i].ID(), nodes[(i+3)%len(nodes)].ID()); err != nil {
			t.Fatal(err)
		}
	}
	tx := testTx(t, 77)

	flood := func(origin *Node) (seen int) {
		tr := obs.NewTracer(1<<12, 1)
		net.EnableTrace(tr)
		net.OnTxFirstSeen = func(*Node, chain.Hash, sim.Time) { seen++ }
		defer func() { net.OnTxFirstSeen = nil }()
		if err := origin.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
		asked, got := map[NodeID]int{}, map[NodeID]int{}
		for _, ev := range tr.Events() {
			switch {
			case ev.Kind == obs.KindSend && wire.Command(ev.Code) == wire.CmdGetData:
				asked[NodeID(ev.P1)]++
			case ev.Kind == obs.KindDeliver && wire.Command(ev.Code) == wire.CmdTx:
				got[NodeID(ev.P2)]++
			}
		}
		for _, nd := range nodes {
			want := 1
			if nd == origin {
				want = 0
			}
			if asked[nd.ID()] != want || got[nd.ID()] != want {
				t.Errorf("origin %d: node %d sent %d GETDATAs and received %d TXs, want %d of each",
					origin.ID(), nd.ID(), asked[nd.ID()], got[nd.ID()], want)
			}
		}
		return seen
	}

	seen1 := flood(nodes[0])
	if seen1 != len(nodes) {
		t.Fatalf("first run reached %d of %d nodes", seen1, len(nodes))
	}
	for _, nd := range nodes {
		if _, ok := nd.FirstSeen(tx.ID()); !ok {
			t.Fatalf("node %d missing first-seen before reset", nd.ID())
		}
	}

	net.ResetInventory()
	for _, nd := range nodes {
		if at, ok := nd.FirstSeen(tx.ID()); ok {
			t.Fatalf("node %d still reports FirstSeen %v after reset", nd.ID(), at)
		}
	}

	// Same transaction, same origin: with no stale holder bits or seen
	// markers, the reflooded run reaches everyone by the same requests.
	if seen2 := flood(nodes[0]); seen2 != len(nodes) {
		t.Fatalf("second run reached %d of %d nodes", seen2, len(nodes))
	}

	// A third run from a different origin still reaches everyone — no
	// residual suppression tied to the first origin.
	net.ResetInventory()
	seen3 := flood(nodes[5])
	if seen3 != len(nodes) {
		t.Fatalf("third run reached %d of %d nodes", seen3, len(nodes))
	}
}

// TestCompactSizesMatchWire pins the framed sizes the relay, the probes and
// the handshake charge for messages they never build to what wire says of
// the real ones; a VERSION is charged with a 10-byte user agent.
func TestCompactSizesMatchWire(t *testing.T) {
	net, _ := testNetwork(t, 2, nil)
	key, err := chain.GenerateKey(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	tx := chain.Coinbase(1, 1000, key.Address())
	blk := &chain.Block{Txs: []*chain.Tx{tx}}
	item := []wire.InvVect{{Type: wire.InvTx, Hash: tx.ID()}}
	pad := make([]byte, max(0, net.cfg.Latency.PingBytes-12))
	for _, c := range []struct {
		msg  wire.Message
		size int
	}{
		{&wire.MsgInv{Items: item}, invSize},
		{&wire.MsgGetData{Items: item}, invSize},
		{&wire.MsgTx{Tx: tx}, frameLen + tx.Size()},
		{&wire.MsgBlock{Block: blk}, frameLen + blk.Size()},
		{&wire.MsgPing{Nonce: 1, Pad: pad}, net.pingSize},
		{&wire.MsgPong{Nonce: 1}, pongSize},
		{&wire.MsgVersion{Protocol: 70015, UserAgent: "/bcbpt:1.0"}, versionSize},
		{&wire.MsgVerack{}, verackSize},
	} {
		if want := wire.EncodedSize(c.msg); c.size != want {
			t.Errorf("%v charged %d bytes, wire.EncodedSize says %d", c.msg.Command(), c.size, want)
		}
	}
}

// TestDeliveryIsOneCacheLine holds the in-flight record to 64 bytes: the
// arena is a slice of them, so each is one aligned line.
func TestDeliveryIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(delivery{}); size != 64 {
		t.Fatalf("delivery is %d bytes, want 64", size)
	}
}

// TestPeerEntryIs16Bytes holds the adjacency entry to 16 bytes, the peer
// and one packed word: a connection costs two of them, one per side, and
// the tables they fill are most of a simulated network's memory.
func TestPeerEntryIs16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(peerEntry{}); size != 16 {
		t.Fatalf("peerEntry is %d bytes, want 16", size)
	}
}

// TestNodeIs192Bytes holds the node to 192 bytes, a size class of the Go
// allocator: a node keeps only what differs between nodes, and what it
// shares — the names of its place, the objects it relays — lives once, in
// the network. A field that copies a shared fact onto every node, or any
// field past the 192nd byte, moves every node up to the next class.
func TestNodeIs192Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size != 192 {
		t.Fatalf("Node is %d bytes, want 192", size)
	}
}

// TestPeerEntryWordRoundTrip packs each field of a peer entry's word at
// its extremes and reads every field back, so no field bleeds into
// another.
func TestPeerEntryWordRoundTrip(t *testing.T) {
	for _, c := range []struct {
		base     time.Duration
		rpos     int32
		outbound bool
	}{
		{0, 0, false},
		{maxEntryBase, 0, false},
		{0, math.MaxInt16, false},
		{0, 0, true},
		{maxEntryBase, math.MaxInt16, true},
		{1, 1, false},
		{maxEntryBase - 1, math.MaxInt16 - 1, true},
	} {
		e := peerEntry{word: packEntry(c.base, c.rpos, c.outbound)}
		if e.base() != c.base || e.rpos() != c.rpos || e.outbound() != c.outbound {
			t.Errorf("packed (%d, %d, %v), read back (%d, %d, %v)", c.base, c.rpos, c.outbound, e.base(), e.rpos(), e.outbound())
		}
	}
	if maxEntryBase != 1<<47-1 {
		t.Fatalf("maxEntryBase = %d, want 2^47-1", maxEntryBase)
	}
}

// TestFreePositionsReusedLIFO pins the order in which a node reuses its
// freed adjacency positions, which fixes the INV fan-out order and with
// it every sender's keyed send sequence: the last freed is the first
// taken, and a new position is appended only when none is free.
func TestFreePositionsReusedLIFO(t *testing.T) {
	net, nodes := testNetwork(t, 8, nil)
	hub := nodes[0]
	for _, nd := range nodes[1:5] {
		if err := net.Connect(hub.ID(), nd.ID()); err != nil {
			t.Fatal(err)
		}
	}
	a, b := hub.peerPos(nodes[1]), hub.peerPos(nodes[3])
	net.Disconnect(hub.ID(), nodes[1].ID())
	net.Disconnect(hub.ID(), nodes[3].ID())
	if got := freeListLen(t, hub); got != 2 {
		t.Fatalf("%d positions on the free list, want 2", got)
	}
	for i, want := range []int32{b, a, 4} {
		nd := nodes[5+i]
		if err := net.Connect(nd.ID(), hub.ID()); err != nil {
			t.Fatal(err)
		}
		if got := hub.peerPos(nd); got != want {
			t.Fatalf("connect %d took position %d, want %d", i, got, want)
		}
	}
	if got := freeListLen(t, hub); got != 0 {
		t.Fatalf("%d positions on the free list after reusing both, want 0", got)
	}
}

// freeListLen walks nd's free list and returns its length, failing if the
// list names a position out of range or in use, or runs longer than the
// table (a cycle).
func freeListLen(t *testing.T, nd *Node) int {
	t.Helper()
	n := 0
	for link := nd.freeHead; link != 0; link = int32(nd.peerTab[link-1].word) {
		if n++; n > len(nd.peerTab) || int(link) > len(nd.peerTab) || nd.peerTab[link-1].node != nil {
			t.Fatalf("node %d: free list broken at link %d after %d steps", nd.ID(), link, n)
		}
	}
	return n
}

// TestRewiringAllocatesNothing: on a warmed network — its slot free list,
// tables and RemoveNode's buffer grown — a RemoveNode, and a Disconnect
// followed by a Connect that reuses the freed positions, allocate nothing.
func TestRewiringAllocatesNothing(t *testing.T) {
	const n, leave = 120, 40
	net, nodes := testNetwork(t, n+leave, nil)
	for _, nd := range nodes[n:] {
		net.RemoveNode(nd.ID()) // grows the slot free list; AddNode reuses the slots
	}
	for i := n; i < n+leave; i++ {
		nodes[i] = net.AddNode(geo.Location{})
	}
	for i := range nodes {
		for k := 1; k <= 3; k++ {
			if err := net.Connect(nodes[i].ID(), nodes[(i+k)%len(nodes)].ID()); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := nodes[0].ID(), nodes[1].ID()
	if allocs := testing.AllocsPerRun(50, func() {
		net.Disconnect(a, b)
		if err := net.Connect(a, b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Disconnect + Connect allocates %v per run", allocs)
	}
	// Every leaver has six peers; the first one removed, AllocsPerRun's
	// warm-up call, grows the buffer.
	next := n
	if allocs := testing.AllocsPerRun(leave-1, func() {
		net.RemoveNode(nodes[next].ID())
		next++
	}); allocs != 0 {
		t.Errorf("RemoveNode allocates %v per run", allocs)
	}
	if next != n+leave {
		t.Fatalf("removed %d nodes, want %d", next-n, leave)
	}
}

// TestRemoveNodeFromOnDisconnect: a RemoveNode that an OnDisconnect hook
// calls inside another's teardown loop works on its own buffer, so the
// outer loop still visits every one of its peers in ID order.
func TestRemoveNodeFromOnDisconnect(t *testing.T) {
	net, nodes := testNetwork(t, 5, nil)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}} {
		if err := net.Connect(nodes[e[0]].ID(), nodes[e[1]].ID()); err != nil {
			t.Fatal(err)
		}
	}
	var got [][2]NodeID
	net.OnDisconnect = func(a, b NodeID) {
		got = append(got, [2]NodeID{a, b})
		if a == 1 && b == 2 {
			net.RemoveNode(3)
		}
	}
	net.RemoveNode(1)
	want := [][2]NodeID{{1, 2}, {3, 1}, {3, 2}, {1, 3}, {1, 4}, {1, 5}}
	if !slices.Equal(got, want) {
		t.Fatalf("disconnects %v, want %v", got, want)
	}
	for _, nd := range nodes {
		if nd.NumPeers() != 0 {
			t.Errorf("node %d keeps %d peers", nd.ID(), nd.NumPeers())
		}
	}
}

// TestCloseResetsInFlightArena: a cleared queue must strand no record, and
// a closed network keeps no measurement or message hook.
func TestCloseResetsInFlightArena(t *testing.T) {
	net, nodes := testNetwork(t, 3, nil)
	connectRing(t, net, nodes)
	net.OnRTT = func(*Node, NodeID, time.Duration) {}
	net.OnMessage = func(*Node, NodeID, wire.Message) {}
	key, err := chain.GenerateKey(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].SubmitTx(chain.Coinbase(1, 1000, key.Address())); err != nil {
		t.Fatal(err)
	}
	nodes[0].Send(nodes[2].ID(), &wire.MsgJoin{Self: wire.NetAddr{NodeID: uint64(nodes[0].ID())}})
	if len(net.dc.flight) == 0 || net.sched.Len() == 0 {
		t.Fatal("nothing in flight")
	}
	net.Close()
	if net.sched.Len() != 0 || len(net.dc.flight) != 0 || len(net.dc.flightMsg) != 0 || len(net.dc.flightFree) != 0 {
		t.Fatalf("after Close: %d events, %d records, %d messages, %d free", net.sched.Len(), len(net.dc.flight), len(net.dc.flightMsg), len(net.dc.flightFree))
	}
	if net.OnRTT != nil || net.OnMessage != nil {
		t.Fatal("Close left OnRTT or OnMessage attached")
	}
}

// TestFreeRecordsAreZero: once a flood has drained, the arena it grew
// holds no node and no transaction reachable — a record is cleared when
// it is taken, not when it is next used.
func TestFreeRecordsAreZero(t *testing.T) {
	net, nodes := testNetwork(t, 8, nil)
	connectRing(t, net, nodes)
	key, err := chain.GenerateKey(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].SubmitTx(chain.Coinbase(1, 1000, key.Address())); err != nil {
		t.Fatal(err)
	}
	nodes[1].ProbeN([]NodeID{nodes[5].ID()}, 1, 0)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(net.dc.flight) == 0 || len(net.dc.flightFree) != len(net.dc.flight) {
		t.Fatalf("%d records, %d free after the drain", len(net.dc.flight), len(net.dc.flightFree))
	}
	for i, d := range net.dc.flight {
		if d != (delivery{}) || net.dc.flightMsg[i] != nil {
			t.Fatalf("free record %d still holds %+v / %v", i, d, net.dc.flightMsg[i])
		}
	}
}

// TestMaxPeersBound: adjacency positions travel as int16.
func TestMaxPeersBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPeers = 1 << 15
	if _, err := NewNetwork(cfg); err == nil {
		t.Error("accepted MaxPeers beyond what an in-flight record can carry")
	}
	cfg.MaxPeers = 1<<15 - 1
	if _, err := NewNetwork(cfg); err != nil {
		t.Errorf("rejected MaxPeers %d: %v", cfg.MaxPeers, err)
	}
}
