package p2p

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Differential harness: drive the flat struct-of-arrays Network and the
// map-based ReferenceNetwork through an identical operation script and
// require every observable to match bit for bit — first-seen event order
// and times, final FirstSeen state, traffic counters, adjacency, each
// prober's ordered stream of the round trips its probes measured, and the
// holder facts ("peer P is known to have hash H") behind relay suppression.
// Both networks derive their randomness from the same named streams with
// the same seed, so any divergence is a real behavioural difference in
// the flat layout, not noise.

// seenEvent is one OnTxFirstSeen/OnBlockFirstSeen firing, in order.
type seenEvent struct {
	node  NodeID
	hash  chain.Hash
	at    sim.Time
	block bool
}

// diffConfig builds the shared config for one differential run.
func diffConfig(loss bool, seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	if loss {
		cfg.LossProb = 0.05
	}
	return cfg
}

// diffHarness owns one flat network and one reference network being
// driven in lockstep.
type diffHarness struct {
	t    testing.TB
	flat *Network
	ref  *ReferenceNetwork

	flatEvents []seenEvent
	refEvents  []seenEvent
	// flatRTTs and refRTTs keep the round trips the probers took in on
	// each side: OnRTT on the flat one, the probes' callbacks on the oracle.
	flatRTTs, refRTTs *rttBook

	hashes  []chain.Hash
	nextTx  uint64
	addr    chain.Address
	removed map[NodeID]bool
}

func newDiffHarness(t testing.TB, cfg Config, nodes int) *diffHarness {
	t.Helper()
	flat, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReferenceNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	placer := geo.DefaultPlacer()
	fr := flat.Streams().Stream("placement")
	rr := ref.streams.Stream("placement")
	for i := 0; i < nodes; i++ {
		flat.AddNode(placer.Place(fr))
		ref.AddNode(placer.Place(rr))
	}
	key, err := chain.GenerateKey(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	h := &diffHarness{t: t, flat: flat, ref: ref, addr: key.Address(), removed: map[NodeID]bool{},
		flatRTTs: watchRTTs(flat), refRTTs: newRTTBook()}
	flat.OnTxFirstSeen = func(nd *Node, hash chain.Hash, at sim.Time) {
		h.flatEvents = append(h.flatEvents, seenEvent{node: nd.ID(), hash: hash, at: at})
	}
	ref.OnTxFirstSeen = func(id NodeID, hash chain.Hash, at sim.Time) {
		h.refEvents = append(h.refEvents, seenEvent{node: id, hash: hash, at: at})
	}
	flat.OnBlockFirstSeen = func(nd *Node, hash chain.Hash, at sim.Time) {
		h.flatEvents = append(h.flatEvents, seenEvent{node: nd.ID(), hash: hash, at: at, block: true})
	}
	ref.OnBlockFirstSeen = func(id NodeID, hash chain.Hash, at sim.Time) {
		h.refEvents = append(h.refEvents, seenEvent{node: id, hash: hash, at: at, block: true})
	}
	return h
}

// liveIDs returns the ascending live node IDs (identical in both nets by
// construction; verified in compare).
func (h *diffHarness) liveIDs() []NodeID { return h.flat.NodeIDs() }

// pick maps a script byte onto a live node ID.
func (h *diffHarness) pick(b byte) (NodeID, bool) {
	ids := h.liveIDs()
	if len(ids) == 0 {
		return 0, false
	}
	return ids[int(b)%len(ids)], true
}

func (h *diffHarness) connect(a, b NodeID) {
	errFlat := h.flat.Connect(a, b)
	errRef := h.ref.Connect(a, b)
	if (errFlat == nil) != (errRef == nil) {
		h.t.Fatalf("Connect(%d,%d): flat err %v, ref err %v", a, b, errFlat, errRef)
	}
}

func (h *diffHarness) disconnect(a, b NodeID) {
	h.flat.Disconnect(a, b)
	h.ref.Disconnect(a, b)
}

func (h *diffHarness) removeNode(id NodeID) {
	h.flat.RemoveNode(id)
	h.ref.RemoveNode(id)
	h.removed[id] = true
}

func (h *diffHarness) addNode() NodeID {
	placer := geo.DefaultPlacer()
	fr := h.flat.Streams().Stream("placement")
	rr := h.ref.streams.Stream("placement")
	fn := h.flat.AddNode(placer.Place(fr))
	rn := h.ref.AddNode(placer.Place(rr))
	if fn.ID() != rn.ID() {
		h.t.Fatalf("AddNode id mismatch: flat %d, ref %d", fn.ID(), rn.ID())
	}
	return fn.ID()
}

func (h *diffHarness) submitTx(at NodeID) {
	h.nextTx++
	h.submit(at, chain.Coinbase(h.nextTx, 1000, h.addr))
}

// submit hands tx to node at on both sides, which must agree on whether it
// is accepted.
func (h *diffHarness) submit(at NodeID, tx *chain.Tx) {
	h.hashes = append(h.hashes, tx.ID())
	fn, ok := h.flat.Node(at)
	if !ok {
		return
	}
	rn, _ := h.ref.Node(at)
	errFlat := fn.SubmitTx(tx)
	errRef := rn.SubmitTx(tx)
	if (errFlat == nil) != (errRef == nil) {
		h.t.Fatalf("SubmitTx at %d: flat err %v, ref err %v", at, errFlat, errRef)
	}
}

func (h *diffHarness) submitBlock(at NodeID) {
	h.nextTx++
	cb := chain.Coinbase(h.nextTx, 1000, h.addr)
	blk := &chain.Block{
		Header: chain.BlockHeader{TargetBits: 4, MerkleRoot: chain.MerkleRoot([]*chain.Tx{cb})},
		Txs:    []*chain.Tx{cb},
	}
	if !blk.Mine(1 << 20) {
		h.t.Fatal("mining failed")
	}
	h.hashes = append(h.hashes, blk.Header.Hash())
	fn, ok := h.flat.Node(at)
	if !ok {
		return
	}
	rn, _ := h.ref.Node(at)
	errFlat := fn.SubmitBlock(blk)
	errRef := rn.SubmitBlock(blk)
	if (errFlat == nil) != (errRef == nil) {
		h.t.Fatalf("SubmitBlock at %d: flat err %v, ref err %v", at, errFlat, errRef)
	}
}

// probeGap spaces the pings of the harness's ProbeN, as a BCBPT join does.
const probeGap = 20 * time.Millisecond

// probeN starts a ProbeN of targets on the flat side, of the given number
// of rounds, which resolves each target and its pair's link once, sends
// each round from one event and lets the pongs reach the prober as
// tickets. The oracle's side is the Probes that stands for
// (ReferenceNode.ProbeN), each pong an event.
func (h *diffHarness) probeN(a NodeID, rounds int, targets ...NodeID) {
	fn, ok := h.flat.Node(a)
	if !ok {
		return
	}
	fn.ProbeN(targets, rounds, probeGap)
	rn, _ := h.ref.Node(a)
	rn.ProbeN(targets, rounds, probeGap, func(b NodeID, rtt time.Duration) { h.refRTTs.observe(a, b, rtt) })
}

// probeTargets picks up to three distinct targets for a ProbeN from a, the
// live IDs from the one y picks on, and with y's high bit set the ID the
// next joiner will get, which names nobody yet and so is dropped every
// round.
func (h *diffHarness) probeTargets(a NodeID, y byte) []NodeID {
	ids := h.liveIDs()
	var out []NodeID
	for j := 0; j < len(ids) && len(out) < 3; j++ {
		if id := ids[(int(y)+j)%len(ids)]; id != a {
			out = append(out, id)
		}
	}
	if y&0x80 != 0 {
		out = append(out, h.flat.nextID+1)
	}
	return out
}

func (h *diffHarness) runFor(d time.Duration) {
	limit := h.flat.Now() + sim.Time(d)
	if err := h.flat.RunUntil(context.Background(), limit); err != nil {
		h.t.Fatalf("flat RunUntil: %v", err)
	}
	if err := h.ref.RunUntil(context.Background(), limit); err != nil {
		h.t.Fatalf("ref RunUntil: %v", err)
	}
}

func (h *diffHarness) reset() {
	h.flat.ResetInventory()
	h.ref.ResetInventory()
}

func (h *diffHarness) drain() {
	if err := h.flat.Run(); err != nil {
		h.t.Fatalf("flat Run: %v", err)
	}
	if err := h.ref.Run(); err != nil {
		h.t.Fatalf("ref Run: %v", err)
	}
}

// flatHolders returns the IDs a flat node knows to hold h: the peers whose
// holder bit is set plus the position-less holders of the spill set —
// the flat layout's rendering of the oracle's peerInv[h].
func flatHolders(nd *Node, h chain.Hash) map[NodeID]struct{} {
	out := map[NodeID]struct{}{}
	hi, ok := nd.net.findHash(h)
	if !ok {
		return out
	}
	for pos := range nd.peerTab {
		if p := nd.peerTab[pos].node; p != nil && nd.holderHas(hi, int32(pos)) {
			out[p.id] = struct{}{}
		}
	}
	if nd.inv.spillGen == nd.net.invGen {
		for fact := range nd.inv.spill {
			if fact.hi == hi {
				out[fact.holder] = struct{}{}
			}
		}
	}
	return out
}

// compare requires every observable to match exactly.
func (h *diffHarness) compare() {
	h.t.Helper()
	if h.flat.Now() != h.ref.Now() {
		h.t.Fatalf("clock divergence: flat %v, ref %v", h.flat.Now(), h.ref.Now())
	}
	if len(h.flatEvents) != len(h.refEvents) {
		h.t.Fatalf("event count: flat %d, ref %d", len(h.flatEvents), len(h.refEvents))
	}
	for i := range h.flatEvents {
		if h.flatEvents[i] != h.refEvents[i] {
			h.t.Fatalf("event %d: flat %+v, ref %+v", i, h.flatEvents[i], h.refEvents[i])
		}
	}
	if h.flat.Stats() != h.ref.Stats() {
		h.t.Fatalf("stats divergence:\nflat: %+v\nref:  %+v", h.flat.Stats(), h.ref.Stats())
	}
	flatIDs := h.flat.NodeIDs()
	refIDs := h.ref.NodeIDs()
	if len(flatIDs) != len(refIDs) {
		h.t.Fatalf("population: flat %d, ref %d", len(flatIDs), len(refIDs))
	}
	for i, id := range flatIDs {
		if refIDs[i] != id {
			h.t.Fatalf("node set mismatch at %d: flat %d, ref %d", i, id, refIDs[i])
		}
		fn, _ := h.flat.Node(id)
		rn, _ := h.ref.Node(id)
		fp, rp := fn.Peers(), rn.Peers()
		if len(fp) != len(rp) {
			h.t.Fatalf("node %d peer count: flat %d, ref %d", id, len(fp), len(rp))
		}
		for j := range fp {
			if fp[j] != rp[j] {
				h.t.Fatalf("node %d peer %d: flat %d, ref %d", id, j, fp[j], rp[j])
			}
		}
		if fn.Outbound() != rn.Outbound() {
			h.t.Fatalf("node %d outbound: flat %d, ref %d", id, fn.Outbound(), rn.Outbound())
		}
		fn.FoldPongs()
		for _, hash := range h.hashes {
			ft, fok := fn.FirstSeen(hash)
			rt, rok := rn.FirstSeen(hash)
			if fok != rok || ft != rt {
				h.t.Fatalf("node %d FirstSeen(%x): flat (%v,%v), ref (%v,%v)", id, hash[:4], ft, fok, rt, rok)
			}
			if fh, rh := flatHolders(fn, hash), rn.peerInv[hash]; !maps.Equal(fh, rh) {
				h.t.Fatalf("node %d holders of %x: flat %v, ref %v", id, hash[:4], fh, rh)
			}
		}
	}
	// Every live prober has folded its pongs in just now, and every
	// departed one when it left: each prober's round trips, departed ones'
	// included, in the order it took them in.
	if h.flatRTTs.n != h.refRTTs.n {
		h.t.Fatalf("round trips measured: flat %d, ref %d", h.flatRTTs.n, h.refRTTs.n)
	}
	for p, fs := range h.flatRTTs.streams {
		if rs := h.refRTTs.streams[p]; !slices.Equal(fs, rs) {
			h.t.Fatalf("round trips node %d measured:\nflat %v\nref  %v", p, fs, rs)
		}
	}
}

// runScript interprets a byte script as a sequence of network operations
// applied to both networks. Every byte sequence is a valid script, so the
// fuzzer can explore freely.
func runScript(t testing.TB, cfg Config, script []byte) {
	h := newDiffHarness(t, cfg, 12)
	// Start from a ring so floods reach everyone even with empty scripts.
	ids := h.liveIDs()
	for i := range ids {
		h.connect(ids[i], ids[(i+1)%len(ids)])
	}
	for i := 0; i+2 < len(script); i += 3 {
		op, x, y := script[i], script[i+1], script[i+2]
		a, ok := h.pick(x)
		if !ok {
			break
		}
		b, _ := h.pick(y)
		switch op % 10 {
		case 0:
			if a != b {
				h.connect(a, b)
			}
		case 1:
			if a != b {
				h.disconnect(a, b)
			}
		case 2:
			h.submitTx(a)
		case 3:
			h.runFor(time.Duration(int(x)+1) * 100 * time.Millisecond)
		case 4:
			h.reset()
		case 5:
			// Keep a quorum alive so scripts cannot empty the network.
			if h.flat.NumNodes() > 4 {
				h.removeNode(a)
			}
		case 6:
			nid := h.addNode()
			if nid != b {
				h.connect(nid, b)
			}
		case 7:
			if a != b {
				h.probeN(a, 1, b)
			}
		case 8:
			h.probeN(a, 3, h.probeTargets(a, y)...)
		case 9:
			h.submitBlock(a)
		}
	}
	// Always end with a flood so every script exercises the full relay
	// path, then drain in-flight events and compare.
	if a, ok := h.pick(3); ok {
		h.submitTx(a)
	}
	h.drain()
	h.compare()
}

// TestFlatNodeMatchesReference pins the flat layout to the map-based
// oracle with and without loss injection, across churn.
func TestFlatNodeMatchesReference(t *testing.T) {
	scripts := map[string][]byte{
		"flood":  {2, 0, 0, 3, 10, 0, 2, 5, 0, 3, 50, 0},
		"churn":  {2, 0, 0, 3, 5, 0, 5, 3, 0, 6, 0, 7, 1, 2, 8, 0, 9, 4, 3, 20, 0, 2, 6, 0},
		"reset":  {2, 0, 0, 3, 200, 0, 4, 0, 0, 2, 1, 0, 3, 200, 0, 4, 0, 0, 2, 2, 0},
		"rewire": {0, 2, 9, 2, 0, 0, 3, 30, 0, 1, 2, 9, 0, 4, 11, 2, 4, 0, 3, 30, 0},
		"probes": {7, 0, 5, 7, 1, 6, 3, 10, 0, 2, 0, 0, 7, 2, 7, 3, 10, 0},
		// ProbeNs in both directions of one pair and across a flood; then
		// one whose target leaves after its first ping, one whose prober
		// leaves with pongs on the wire, and a joiner into the freed slot.
		"probe-n": {8, 0, 5, 8, 5, 0, 8, 1, 6, 2, 0, 0, 3, 0, 0, 8, 2, 7, 8, 3, 4, 3, 0, 0, 5, 7, 0, 5, 3, 0, 6, 0, 1, 3, 10, 0},
		"blocks":  {2, 0, 0, 3, 255, 0, 4, 0, 0, 3, 10, 0, 2, 4, 0},
		// A block and a transaction flood together, and the inventory is
		// reset, an edge cut and a node removed under them: at once (INVs
		// on the wire), and 100 ms apart (GETDATAs, then the objects).
		"block-reset": {9, 0, 0, 2, 6, 0, 4, 0, 0, 3, 0, 0, 9, 3, 0, 3, 0, 0, 4, 0, 0, 3, 0, 0, 4, 0, 0},
		"block-churn": {9, 0, 0, 2, 6, 0, 1, 0, 1, 5, 11, 0, 3, 0, 0, 1, 6, 7, 5, 4, 0, 3, 0, 0, 5, 2, 0, 4, 0, 0},
		"mixed-ops":   {6, 0, 1, 2, 3, 0, 3, 40, 0, 5, 7, 0, 0, 1, 8, 2, 2, 0, 3, 90, 0, 4, 0, 0, 2, 5, 0},
		"mid-flight":  {2, 0, 0, 3, 1, 0, 5, 4, 0, 3, 1, 0, 5, 6, 0, 3, 100, 0},
	}
	// "inv" in a mode's name is the INV/GETDATA/TX exchange every mode
	// runs; both modes validate alike, and the second loses messages.
	type mode struct {
		name string
		loss bool
	}
	modes := []mode{
		{"light-inv", false},
		{"none-inv-loss", true},
	}
	for _, m := range modes {
		for name, script := range scripts {
			t.Run(fmt.Sprintf("%s/%s", m.name, name), func(t *testing.T) {
				runScript(t, diffConfig(m.loss, 42), script)
			})
		}
	}
}

// TestFlatBlockRelayMatchesReference covers block submission, which the
// byte scripts keep separate because mining has nonzero cost.
func TestFlatBlockRelayMatchesReference(t *testing.T) {
	cfg := diffConfig(false, 9)
	h := newDiffHarness(t, cfg, 10)
	ids := h.liveIDs()
	for i := range ids {
		h.connect(ids[i], ids[(i+1)%len(ids)])
		h.connect(ids[i], ids[(i+3)%len(ids)])
	}
	h.submitBlock(ids[2])
	h.runFor(2 * time.Second)
	h.submitTx(ids[5])
	h.drain()
	h.reset()
	h.submitBlock(ids[7])
	h.drain()
	h.compare()
}

// TestConflictingSpendsMatchReference races two spends of one output from
// opposite sides of the network, where the flat layout decides each node's
// winner from the network's spenders list and the oracle from the node's
// own map of spent outputs. Which node keeps which spend, when, who is known
// to hold what, and the traffic must match; so must the rejection of the
// loser resubmitted where the winner got first, and the acceptance of a
// third spend once ResetInventory has freed the output.
func TestConflictingSpendsMatchReference(t *testing.T) {
	h := newDiffHarness(t, diffConfig(false, 13), 10)
	ids := h.liveIDs()
	for i := range ids {
		h.connect(ids[i], ids[(i+1)%len(ids)])
		h.connect(ids[i], ids[(i+3)%len(ids)])
	}
	op := chain.Outpoint{TxID: chain.DoubleSHA256([]byte("race")), Index: 1}
	a, b := spendOf(op, 1), spendOf(op, 2)
	h.submit(ids[0], a)
	h.submit(ids[5], b)
	h.drain()
	h.compare()
	fa, ok := h.flat.Node(ids[0])
	if !ok {
		t.Fatal("node gone")
	}
	if _, held := fa.FirstSeen(a.ID()); !held {
		t.Fatal("the origin of A does not hold it")
	}
	h.submit(ids[0], b) // rejected on both sides, which submit checks
	if err := fa.SubmitTx(b); err == nil {
		t.Fatal("B accepted where A got first")
	}
	h.reset()
	h.submit(ids[7], spendOf(op, 3))
	h.drain()
	h.compare()
}

// TestStalePositionMatchesReference holds a message in flight across a
// Disconnect and whatever reuses the freed adjacency position, for each
// leg of the Fig. 1 exchange. A delivery carries its sender's position at
// the receiver and the receiver's table epoch; by the time it lands the
// epoch has moved, and the position may be (freed) empty, (other) recycled
// for a different peer, (same) recycled for the sender itself, or (moved)
// taken by another peer with the sender reconnected somewhere else — or
// (bystander) still the sender's, because the peer that left was another
// one. The handlers must resolve the sender exactly as the by-ID oracle
// does in every case.
func TestStalePositionMatchesReference(t *testing.T) {
	// a floods; b is its only peer and relays on to d; c is the spare
	// that recycles positions, or the bystander that leaves.
	const a, b, c, d = NodeID(1), NodeID(2), NodeID(3), NodeID(4)
	legs := []struct {
		name string
		cmd  wire.Command
		recv NodeID // where the in-flight message lands
	}{
		{"inv", wire.CmdInv, b},
		{"getdata", wire.CmdGetData, a},
		{"tx", wire.CmdTx, b},
	}
	cutThen := func(reuse func(h *diffHarness, recv NodeID)) func(*diffHarness, NodeID) {
		return func(h *diffHarness, recv NodeID) { h.disconnect(a, b); reuse(h, recv) }
	}
	variants := []struct {
		name string
		// churn runs with the leg's message on the wire.
		churn func(h *diffHarness, recv NodeID)
	}{
		{"freed", cutThen(func(h *diffHarness, recv NodeID) {})},
		{"other", cutThen(func(h *diffHarness, recv NodeID) { h.connect(c, recv) })},
		{"same", cutThen(func(h *diffHarness, recv NodeID) { h.connect(a, b) })},
		{"moved", cutThen(func(h *diffHarness, recv NodeID) { h.connect(c, recv); h.connect(a, b) })},
		{"bystander", func(h *diffHarness, recv NodeID) { h.disconnect(c, recv) }},
	}
	for _, leg := range legs {
		for _, v := range variants {
			// "inv/" names the exchange, INV/GETDATA/TX, the legs belong to.
			t.Run(fmt.Sprintf("inv/%s/%s", leg.name, v.name), func(t *testing.T) {
				h := newDiffHarness(t, diffConfig(false, 5), 4)
				h.connect(a, b)
				h.connect(b, d)
				if v.name == "bystander" {
					// c dials in, so a still announces to b alone.
					h.connect(c, leg.recv)
				}
				h.submitTx(a)
				// Step until the leg's first message is on the wire
				// (sent, not yet handled: nothing answers it yet).
				for i := 0; h.flat.Stats().Messages[leg.cmd] == 0; i++ {
					if i > 10_000 {
						t.Fatalf("no %v sent", leg.cmd)
					}
					h.runFor(100 * time.Microsecond)
				}
				fn, _ := h.flat.Node(leg.recv)
				sender, _ := h.flat.Node(a + b - leg.recv)
				carried, epoch := fn.peerPos(sender), fn.tabEpoch
				v.churn(h, leg.recv)
				if fn.tabEpoch == epoch {
					t.Fatalf("node %d's table epoch stayed %d: the delivery's position would go unchecked", leg.recv, epoch)
				}
				switch got := fn.peerPos(sender); {
				case v.name == "moved" && got == carried:
					t.Fatalf("sender kept position %d across the reconnect", got)
				case (v.name == "same" || v.name == "bystander") && got != carried:
					t.Fatalf("sender moved from position %d to %d", carried, got)
				}
				h.drain()
				h.compare()
				if _, ok := fn.FirstSeen(h.hashes[0]); !ok {
					t.Fatalf("node %d never saw the transaction", leg.recv)
				}
			})
		}
	}
}

// TestInFlightRecordMatchesReference holds each leg of the Fig. 1 exchange,
// for a transaction and for a block, on the wire while what its record
// carries goes stale: the inventory generation its hash index was resolved
// under (reset), the peer-table epoch and position of its sender
// (disconnect), or an end of it (the receiver or the sender removed). The
// oracle's messages spell the hash out and find everything by ID, so it is
// what each stale arm of the record must come out equal to.
func TestInFlightRecordMatchesReference(t *testing.T) {
	// a floods; b is its only peer and relays on to d.
	const a, b, d = NodeID(1), NodeID(2), NodeID(3)
	legs := []struct {
		name    string
		tx, blk wire.Command // the leg's command for a transaction, for a block
		recv    NodeID       // where the in-flight message lands
	}{
		{"inv", wire.CmdInv, wire.CmdInv, b},
		{"getdata", wire.CmdGetData, wire.CmdGetData, a},
		{"object", wire.CmdTx, wire.CmdBlock, b},
	}
	variants := []struct {
		name  string
		churn func(h *diffHarness, recv NodeID)
	}{
		{"reset", func(h *diffHarness, recv NodeID) { h.reset() }},
		{"reset-twice", func(h *diffHarness, recv NodeID) { h.reset(); h.reset() }},
		{"disconnect", func(h *diffHarness, recv NodeID) { h.disconnect(a, b) }},
		{"receiver-removed", func(h *diffHarness, recv NodeID) { h.removeNode(recv) }},
		{"sender-removed", func(h *diffHarness, recv NodeID) { h.removeNode(a + b - recv) }},
		{"reset-and-disconnect", func(h *diffHarness, recv NodeID) { h.reset(); h.disconnect(a, b) }},
		// The next generation hands the stale record's hash index to
		// another transaction, which the receiver holds when it lands.
		{"reset-and-flood", func(h *diffHarness, recv NodeID) { h.reset(); h.submitTx(recv) }},
	}
	for _, block := range []bool{false, true} {
		for _, leg := range legs {
			cmd, object := leg.tx, "tx"
			if block {
				cmd, object = leg.blk, "block"
			}
			for _, v := range variants {
				// "inv/" names the exchange, INV/GETDATA/object, the legs belong to.
				t.Run(fmt.Sprintf("inv/%s/%s/%s", object, leg.name, v.name), func(t *testing.T) {
					h := newDiffHarness(t, diffConfig(false, 5), 3)
					h.connect(a, b)
					h.connect(b, d)
					if block {
						h.submitBlock(a)
					} else {
						h.submitTx(a)
					}
					for i := 0; h.flat.Stats().Messages[cmd] == 0; i++ {
						if i > 10_000 {
							t.Fatalf("no %v sent", cmd)
						}
						h.runFor(100 * time.Microsecond)
					}
					if n := h.flat.sched.Len(); n != 1 {
						t.Fatalf("%d events pending with the %v on the wire, want it alone", n, cmd)
					}
					v.churn(h, leg.recv)
					h.drain()
					h.compare()
					// The network still floods afterwards, through
					// whatever the record left behind.
					if _, ok := h.flat.Node(a); ok {
						h.submitTx(a)
						h.drain()
						h.compare()
					}
				})
			}
		}
	}
}

// TestProbeNCarriedHandles names what a ProbeN resolves once — its target,
// the pair's link baseline — and what its pings carry to the pong — the
// prober, the same baseline and the send time — must survive, each against
// the oracle, which looks everything up by ID at every step. What shows is
// what was sent and dropped and how many round trips reached the prober's
// estimator.
func TestProbeNCarriedHandles(t *testing.T) {
	const a, b = NodeID(2), NodeID(7)
	// until steps both networks until the flat side has sent n of cmd.
	until := func(t *testing.T, h *diffHarness, cmd wire.Command, n uint64) {
		t.Helper()
		for i := 0; h.flat.Stats().Messages[cmd] < n; i++ {
			if i > 100_000 {
				t.Fatalf("only %d of %d %v sent", h.flat.Stats().Messages[cmd], n, cmd)
			}
			h.runFor(100 * time.Microsecond)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, h *diffHarness)
		// what the flat side must show once everything has drained: traffic
		// and the samples in the prober's estimator for target (b unless set)
		pings, pongs, dropped uint64
		target                NodeID
		samples               int
	}{
		{
			name: "target removed between ProbeN and the second ping",
			run: func(t *testing.T, h *diffHarness) {
				h.probeN(a, 3, b)
				until(t, h, wire.CmdPing, 1)
				h.removeNode(b)
			},
			// The first ping dies at the empty slot; the other two cannot
			// leave.
			pings: 1, pongs: 0, dropped: 3,
		},
		{
			name: "target's slot recycled between pings",
			run: func(t *testing.T, h *diffHarness) {
				h.probeN(a, 3, b)
				until(t, h, wire.CmdPing, 1)
				fb, _ := h.flat.Node(b)
				slot := fb.Slot()
				h.removeNode(b)
				if joiner, _ := h.flat.Node(h.addNode()); joiner.Slot() != slot {
					t.Fatalf("joiner took slot %d, not the target's %d", joiner.Slot(), slot)
				}
			},
			// The joiner in b's slot is not b: nothing more is sent.
			pings: 1, pongs: 0, dropped: 3,
		},
		{
			name: "a target that names nobody is dropped every round",
			run: func(t *testing.T, h *diffHarness) {
				const next = NodeID(11) // the harness starts with ten nodes
				h.probeN(a, 3, next)
				h.runFor(time.Millisecond)
				if id := h.addNode(); id != next {
					t.Fatalf("joiner got id %d, want %d", id, next)
				}
			},
			// ProbeN found nobody to resolve: no ping leaves, not even
			// once the ID names the joiner.
			pings: 0, pongs: 0, dropped: 3, target: 11, samples: 0,
		},
		{
			name: "prober removed with a pong in flight",
			run: func(t *testing.T, h *diffHarness) {
				h.probeN(a, 3, b)
				until(t, h, wire.CmdPong, 1)
				h.removeNode(a)
			},
			// A one-way trip outlasts both gaps: all three pings are out
			// when the first pong leaves; that pong dies at the empty slot
			// and b finds nobody to answer the other two pings to.
			pings: 3, pongs: 1, dropped: 3,
		},
		{
			name: "prober's slot recycled before the ping lands",
			run: func(t *testing.T, h *diffHarness) {
				h.probeN(a, 3, b)
				until(t, h, wire.CmdPing, 1)
				fa, _ := h.flat.Node(a)
				slot := fa.Slot()
				h.removeNode(a)
				joiner, _ := h.flat.Node(h.addNode())
				if joiner.Slot() != slot {
					t.Fatalf("joiner took slot %d, not the prober's %d", joiner.Slot(), slot)
				}
			},
			// b answers into a slot that now holds someone else: no pong.
			pings: 1, pongs: 0, dropped: 1,
		},
		{
			name: "prober's slot recycled with the pong in flight",
			run: func(t *testing.T, h *diffHarness) {
				h.probeN(a, 3, b)
				until(t, h, wire.CmdPong, 1)
				h.removeNode(a)
				h.addNode()
			},
			pings: 3, pongs: 1, dropped: 3,
		},
		{
			name: "probed, then connected",
			run: func(t *testing.T, h *diffHarness) {
				fa, _ := h.flat.Node(a)
				fb, _ := h.flat.Node(b)
				h.probeN(a, 3, b)
				h.drain()
				if h.flat.linkDraws != 1 {
					t.Fatalf("ProbeN made %d link draws; want 1", h.flat.linkDraws)
				}
				probed := h.flat.link(fa, fb).Base()
				h.connect(a, b)
				h.submitTx(a)
				h.drain()
				truth, _ := h.flat.BaseRTT(a, b)
				oracle := h.ref.link(h.ref.nodes[a], h.ref.nodes[b]).Base()
				if edge := fa.peerTab[fa.peerPos(fb)].base(); edge != probed || truth != probed || oracle != probed {
					t.Fatalf("one pair, four baselines: probe %v, peer entry %v, BaseRTT %v, oracle %v", probed, edge, truth, oracle)
				}
			},
			pings: 3, pongs: 3, dropped: 0, samples: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newDiffHarness(t, diffConfig(false, 21), 10)
			fa, _ := h.flat.Node(a)
			tc.run(t, h)
			h.drain()
			h.compare()
			st := h.flat.Stats()
			if st.Messages[wire.CmdPing] != tc.pings || st.Messages[wire.CmdPong] != tc.pongs || st.Dropped != tc.dropped {
				t.Fatalf("pings %d, pongs %d, dropped %d; want %d, %d, %d",
					st.Messages[wire.CmdPing], st.Messages[wire.CmdPong], st.Dropped, tc.pings, tc.pongs, tc.dropped)
			}
			target, samples := tc.target, 0
			if target == 0 {
				target = b
			}
			if est, ok := h.flatRTTs.estimator(fa, target); ok {
				samples = est.Samples()
			}
			if samples != tc.samples {
				t.Fatalf("%d round trips measured, want %d", samples, tc.samples)
			}
		})
	}
}

// TestHashMemoMatchesReference keeps two hashes in the air at once and
// resets the inventory under them, so the registry's one-entry memo is
// evicted by every other lookup and outlives its generation again and
// again. The messages still on the wire land in the next generation and
// register their hashes afresh, in arrival order: an answer carried across
// the ResetInventory hands the first of them its old dense index without
// registering it, the next hash is assigned the same one, and the two
// share first-seen times and holders from then on.
func TestHashMemoMatchesReference(t *testing.T) {
	// "inv" names the exchange, INV/GETDATA/TX, the floods relay over.
	t.Run("inv", func(t *testing.T) {
		h := newDiffHarness(t, diffConfig(false, 11), 10)
		ids := h.liveIDs()
		for i := range ids {
			h.connect(ids[i], ids[(i+1)%len(ids)])
			h.connect(ids[i], ids[(i+3)%len(ids)])
		}
		for round := 0; round < 12; round++ {
			// Two floods from opposite sides meet mid-network; which
			// one the memo holds when the reset lands, and which one's
			// message lands first after it, vary with the round.
			h.submitTx(ids[round%len(ids)])
			h.submitTx(ids[(round+5)%len(ids)])
			h.runFor(time.Duration(20+7*round) * time.Millisecond)
			h.reset()
			h.runFor(40 * time.Millisecond)
			h.compare()
			h.submitTx(ids[(round+2)%len(ids)])
			h.drain()
			h.compare()
			h.reset()
		}
	})
}

// FuzzFlatNodeMatchesReference lets the fuzzer search for op sequences
// where the flat layout diverges from the oracle. The seed corpus covers
// every opcode, churn around in-flight messages, back-to-back resets,
// records whose carried sender position, hash index or destination went
// stale mid-flight, and ProbeNs whose resolved target or prober left
// between pings.
func FuzzFlatNodeMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{2, 0, 0, 3, 10, 0})
	f.Add(int64(2), []byte{2, 0, 0, 3, 5, 0, 5, 3, 0, 6, 0, 7, 3, 50, 0})
	f.Add(int64(3), []byte{2, 0, 0, 4, 0, 0, 2, 1, 0, 3, 200, 0, 4, 0, 0, 2, 2, 0})
	f.Add(int64(4), []byte{0, 2, 9, 1, 2, 9, 7, 0, 5, 3, 30, 0, 2, 0, 0})
	f.Add(int64(5), []byte{2, 0, 0, 3, 1, 0, 5, 4, 0, 5, 6, 0, 3, 100, 0, 6, 0, 2})
	// Stale carried positions: node 1 floods, then loses its ring edges
	// with messages on the wire, and the freed positions at the receivers
	// are left empty, recycled for another peer, recycled for node 1, or
	// taken by another peer with node 1 reconnected elsewhere. Seeds 1 and
	// 4 cut the edge at once (INV in flight); seed 17 cuts it 100 ms in,
	// when both neighbours' GETDATAs are on their way back.
	for _, seed := range []int64{1, 4} {
		f.Add(seed, []byte{2, 0, 0, 1, 0, 1, 3, 5, 0})
		f.Add(seed, []byte{2, 0, 0, 1, 0, 1, 0, 5, 1, 3, 5, 0})
		f.Add(seed, []byte{2, 0, 0, 1, 0, 1, 0, 0, 1, 3, 5, 0})
		f.Add(seed, []byte{2, 0, 0, 1, 0, 1, 0, 5, 1, 0, 0, 1, 3, 5, 0})
	}
	// ProbeN's carried handles: the target, then the prober, leaves between
	// pings; a joiner recycles the freed slot before the last pong lands.
	f.Add(int64(3), []byte{8, 0, 5, 8, 5, 0, 3, 0, 0, 5, 5, 0, 3, 0, 0, 5, 0, 0, 6, 0, 1, 8, 11, 1, 3, 10, 0})
	f.Add(int64(17), []byte{2, 0, 0, 3, 0, 0, 1, 0, 1, 1, 0, 11, 3, 9, 0})
	f.Add(int64(17), []byte{2, 0, 0, 3, 0, 0, 1, 0, 1, 0, 5, 0, 1, 0, 11, 0, 6, 0, 3, 9, 0})
	f.Add(int64(17), []byte{2, 0, 0, 3, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 11, 0, 0, 11, 3, 9, 0})
	f.Add(int64(17), []byte{2, 0, 0, 3, 0, 0, 1, 0, 1, 0, 5, 0, 0, 0, 1, 1, 0, 11, 0, 6, 0, 0, 0, 11, 3, 9, 0})
	// What an in-flight record carries going stale: a block and a
	// transaction flood, then ResetInventory, Disconnect or RemoveNode at
	// once (INVs on the wire) and again 100 ms on (GETDATAs, TX, BLOCK).
	// Seed 4 draws another network; seed 5 also loses messages.
	for _, seed := range []int64{1, 4, 5} {
		f.Add(seed, []byte{9, 0, 0, 2, 6, 0, 4, 0, 0, 3, 0, 0, 4, 0, 0, 3, 0, 0, 4, 0, 0})
		f.Add(seed, []byte{9, 0, 0, 2, 6, 0, 1, 0, 1, 1, 6, 7, 3, 0, 0, 1, 0, 11, 1, 6, 5, 3, 0, 0})
		f.Add(seed, []byte{9, 0, 0, 2, 6, 0, 5, 1, 0, 5, 6, 0, 3, 0, 0, 5, 10, 0, 5, 4, 0, 6, 0, 2, 3, 0, 0})
	}
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 96 {
			script = script[:96]
		}
		runScript(t, diffConfig(seed%5 == 0, seed), script)
	})
}
