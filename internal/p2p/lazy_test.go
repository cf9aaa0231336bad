package p2p

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Twin differential: the same network, seed and script run once with a
// tracer attached — every INV a record and an event, landing through
// handleInv — and once without, where an INV that can tell its receiver
// nothing new leaves as a ticket (Node.lazyInv). Everything observable must
// come out the same at every checkpoint: the clock, the traffic counters
// with Dropped and Lost, the first-seen log in order, every node's FirstSeen
// and every node's holder facts, those of nodes that left included.

// twinSide is one of the two networks with what its script has made so far.
type twinSide struct {
	t      *testing.T
	net    *Network
	nodes  []*Node // every node ever added, removed ones included
	hashes []chain.Hash
	log    []seenEvent
	addr   chain.Address
	nextTx uint64
	r      *rand.Rand // the script's own choices, same on both sides
	shots  []twinShot
	// folded and redeemed count the tickets the script's teardowns found
	// passed and still on their way (peekTickets); none on the traced side.
	folded, redeemed int
}

// twinShot is everything compared at one checkpoint.
type twinShot struct {
	now     sim.Time
	stats   Stats
	live    []NodeID
	logLen  int
	seen    map[NodeID][]sim.Time // per hash, -1 for never
	holders map[NodeID][][]NodeID // per hash, ascending
}

func newTwinSide(t *testing.T, cfg Config, n, chords int, traced bool) *twinSide {
	t.Helper()
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		net.EnableTrace(obs.NewTracer(1<<10, 1))
	}
	key, err := chain.GenerateKey(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	s := &twinSide{t: t, net: net, addr: key.Address(), r: rand.New(rand.NewSource(99))}
	net.OnTxFirstSeen = func(nd *Node, h chain.Hash, at sim.Time) {
		s.log = append(s.log, seenEvent{node: nd.ID(), hash: h, at: at})
	}
	net.OnBlockFirstSeen = func(nd *Node, h chain.Hash, at sim.Time) {
		s.log = append(s.log, seenEvent{node: nd.ID(), hash: h, at: at, block: true})
	}
	for i := 0; i < n; i++ {
		s.addNode()
	}
	for i := range s.nodes {
		s.connect(i, (i+1)%n)
		for c := 0; c < chords; c++ {
			s.connect(i, s.r.Intn(n))
		}
	}
	return s
}

func (s *twinSide) addNode() int {
	s.nodes = append(s.nodes, s.net.AddNode(geo.DefaultPlacer().Place(s.net.Streams().Stream("placement"))))
	return len(s.nodes) - 1
}

// connect joins nodes i and j; a refusal (self, duplicate, full, gone) is the
// same refusal on both sides.
func (s *twinSide) connect(i, j int) { _ = s.net.Connect(s.nodes[i].ID(), s.nodes[j].ID()) }

func (s *twinSide) submitTx(i int) {
	s.nextTx++
	tx := chain.Coinbase(s.nextTx, 1000, s.addr)
	s.hashes = append(s.hashes, tx.ID())
	if err := s.nodes[i].SubmitTx(tx); err != nil {
		s.t.Fatal(err)
	}
}

func (s *twinSide) submitBlock(i int) {
	s.nextTx++
	cb := chain.Coinbase(s.nextTx, 1000, s.addr)
	blk := &chain.Block{Header: chain.BlockHeader{MerkleRoot: chain.MerkleRoot([]*chain.Tx{cb})}, Txs: []*chain.Tx{cb}}
	s.hashes = append(s.hashes, blk.Header.Hash())
	if err := s.nodes[i].SubmitBlock(blk); err != nil {
		s.t.Fatal(err)
	}
}

// peekTickets counts what a teardown of nd's edge to peer is about to
// settle, on both of its ends: tickets that have passed, which must end as
// their bits would (a spill fact for a Disconnect, nothing for a removal),
// and tickets still on their way, which must land as the INVs they stand
// for.
func (s *twinSide) peekTickets(nd *Node, peer NodeID) {
	for _, end := range [2][2]*Node{{nd, s.net.nodes[peer]}, {s.net.nodes[peer], nd}} {
		at, from := end[0], end[1]
		if at == nil || from == nil {
			continue
		}
		if t := at.lazyAt(at.inv.lazyHi, at.peerPos(from)); t != nil && *t != (sim.Ticket{}) {
			if s.net.sched.Passed(*t) {
				s.folded++
			} else {
				s.redeemed++
			}
		}
	}
}

// disconnect cuts the edge between nd and peer.
func (s *twinSide) disconnect(nd *Node, peer NodeID) {
	s.peekTickets(nd, peer)
	s.net.Disconnect(nd.ID(), peer)
}

// remove takes nd out of the network.
func (s *twinSide) remove(nd *Node) {
	for _, peer := range nd.Peers() {
		s.peekTickets(nd, peer)
	}
	s.net.RemoveNode(nd.ID())
}

// runFor advances the clock by d and takes a checkpoint.
func (s *twinSide) runFor(d time.Duration) {
	if err := s.net.RunUntil(context.Background(), s.net.Now()+sim.Time(d)); err != nil {
		s.t.Fatal(err)
	}
	s.shoot()
}

// drain runs the queue empty and takes a checkpoint.
func (s *twinSide) drain() {
	if err := s.net.Run(); err != nil {
		s.t.Fatal(err)
	}
	s.shoot()
}

func (s *twinSide) shoot() {
	shot := twinShot{
		now: s.net.Now(), stats: s.net.Stats(), live: s.net.NodeIDs(), logLen: len(s.log),
		seen: map[NodeID][]sim.Time{}, holders: map[NodeID][][]NodeID{},
	}
	for _, nd := range s.nodes {
		for _, h := range s.hashes {
			at, ok := nd.FirstSeen(h)
			if !ok {
				at = -1
			}
			shot.seen[nd.ID()] = append(shot.seen[nd.ID()], at)
			var holders []NodeID
			for id := range flatHolders(nd, h) {
				holders = append(holders, id)
			}
			slices.Sort(holders)
			shot.holders[nd.ID()] = append(shot.holders[nd.ID()], holders)
		}
	}
	s.shots = append(s.shots, shot)
}

// requireTwin runs script on a traced and an untraced copy of one network
// and requires every checkpoint equal. It returns the two sides, traced
// first, for what a test wants to ask of them beyond that.
func requireTwin(t *testing.T, cfg Config, n, chords int, script func(s *twinSide)) (traced, lazy *twinSide) {
	t.Helper()
	traced, lazy = newTwinSide(t, cfg, n, chords, true), newTwinSide(t, cfg, n, chords, false)
	script(traced)
	script(lazy)
	if len(traced.shots) != len(lazy.shots) || len(traced.shots) == 0 {
		t.Fatalf("%d checkpoints traced, %d untraced", len(traced.shots), len(lazy.shots))
	}
	for i := range traced.shots {
		a, b := traced.shots[i], lazy.shots[i]
		switch {
		case a.now != b.now:
			t.Fatalf("checkpoint %d: clock %v traced, %v untraced", i, a.now, b.now)
		case a.stats != b.stats:
			t.Fatalf("checkpoint %d: stats\ntraced   %+v\nuntraced %+v", i, a.stats, b.stats)
		case !slices.Equal(a.live, b.live):
			t.Fatalf("checkpoint %d: population %v traced, %v untraced", i, a.live, b.live)
		case !slices.Equal(traced.log[:a.logLen], lazy.log[:b.logLen]):
			t.Fatalf("checkpoint %d: first-seen logs differ (%d and %d entries)", i, a.logLen, b.logLen)
		case !reflect.DeepEqual(a.seen, b.seen):
			t.Fatalf("checkpoint %d: FirstSeen differs", i)
		}
		for id, want := range a.holders {
			if got := b.holders[id]; !reflect.DeepEqual(got, want) {
				t.Fatalf("checkpoint %d: node %d holder sets per hash %v traced, %v untraced", i, id, want, got)
			}
		}
	}
	// Not vacuous: the untraced side did leave INVs out of the queue, and the
	// traced side none.
	invs := traced.net.Stats().Messages[wire.CmdInv]
	te, le := traced.net.sched.Executed(), lazy.net.sched.Executed()
	if le >= te || te-le > invs {
		t.Fatalf("events: %d traced, %d untraced, with %d INVs sent", te, le, invs)
	}
	return traced, lazy
}

func twinConfig(loss float64) Config {
	cfg := DefaultConfig()
	cfg.LossProb = loss
	cfg.Seed = 11
	return cfg
}

// TestLazyInvMatchesTracedFlood is the plain case: floods back to back with
// a reset between, checked mid-flood and drained.
func TestLazyInvMatchesTracedFlood(t *testing.T) {
	requireTwin(t, twinConfig(0), 80, 3, func(s *twinSide) {
		for f := 0; f < 3; f++ {
			s.net.ResetInventory()
			s.submitTx(f * 7)
			for i := 0; i < 6; i++ {
				s.runFor(40 * time.Millisecond)
			}
			s.drain()
		}
	})
}

// TestLazyInvMatchesTracedUnderChurn tears edges down and removes nodes at
// both ends of INVs that are on their way — as tickets on one side, records
// on the other — lets joiners recycle the freed positions and slots, and
// reconnects pairs that were cut, with and without message loss.
func TestLazyInvMatchesTracedUnderChurn(t *testing.T) {
	for _, loss := range []float64{0, 0.2} {
		traced, lazy := requireTwin(t, twinConfig(loss), 80, 4, func(s *twinSide) {
			for f := 0; f < 6; f++ {
				s.net.ResetInventory()
				s.submitTx(s.r.Intn(20))
				// Enough steps that both loss rates fold and redeem well
				// over the ten tickets the check below asks of them.
				for step := 0; step < 52; step++ {
					s.runFor(time.Duration(5+s.r.Intn(40)) * time.Millisecond)
					a := s.r.Intn(len(s.nodes))
					switch s.r.Intn(4) {
					case 0:
						if s.net.NumNodes() > 40 && a >= 20 {
							s.remove(s.nodes[a])
						}
					case 1:
						if peers := s.nodes[a].Peers(); len(peers) > 0 {
							b := peers[s.r.Intn(len(peers))]
							s.disconnect(s.nodes[a], b)
							if s.r.Intn(2) == 0 {
								_ = s.net.Connect(b, s.nodes[a].ID())
							}
						}
					case 2:
						j := s.addNode()
						for c := 0; c < 4; c++ {
							s.connect(j, s.r.Intn(len(s.nodes)))
						}
					case 3:
						s.connect(a, s.r.Intn(len(s.nodes)))
					}
				}
				s.drain()
			}
		})
		st := traced.net.Stats()
		if st.Dropped == 0 || (loss > 0) != (st.Lost > 0) || lazy.folded < 10 || lazy.redeemed < 10 || traced.folded+traced.redeemed != 0 {
			t.Errorf("loss %g: %d dropped, %d lost, %d tickets folded and %d redeemed (%d with a tracer): the script did not exercise what it is for",
				loss, st.Dropped, st.Lost, lazy.folded, lazy.redeemed, traced.folded+traced.redeemed)
		}
	}
}

// TestLazyInvOccupiedSlots floods two transactions and a block together: a
// node's ticket slots belong to one hash per generation, so the INVs of the
// others take the event path there, and the three floods still come out as
// they do traced.
func TestLazyInvOccupiedSlots(t *testing.T) {
	_, lazy := requireTwin(t, twinConfig(0), 80, 4, func(s *twinSide) {
		s.submitTx(0)
		s.submitTx(40)
		s.submitBlock(20)
		for i := 0; i < 8; i++ {
			s.runFor(30 * time.Millisecond)
		}
		s.drain()
	})
	owners := map[int32]int{}
	for _, nd := range lazy.nodes {
		if nd.inv.lazyGen == lazy.net.invGen {
			owners[nd.inv.lazyHi]++
		}
	}
	if len(owners) < 2 {
		t.Errorf("ticket slots were owned by %d distinct hashes (%v), want at least 2", len(owners), owners)
	}
}

// TestLazyInvResetMidFlood resets the inventory with tickets outstanding:
// they are abandoned with the pool, while the traced side's INVs of the old
// generation are records that land, as do its GETDATAs, TXs and
// verifications — and all of them do nothing, while the next flood is
// already under way.
func TestLazyInvResetMidFlood(t *testing.T) {
	for _, loss := range []float64{0, 0.2} {
		requireTwin(t, twinConfig(loss), 80, 4, func(s *twinSide) {
			s.submitTx(0)
			for i := 0; i < 4; i++ {
				s.runFor(100 * time.Millisecond)
			}
			s.net.ResetInventory()
			s.shoot()
			s.submitTx(30)
			for i := 0; i < 4; i++ {
				s.runFor(100 * time.Millisecond)
			}
			s.net.ResetInventory()
			s.net.ResetInventory()
			s.runFor(100 * time.Millisecond)
			s.drain()
		})
	}
}

// TestLazyInvExactTie constructs the one order the heap decides by sequence
// number alone: an INV from s lands at r at the very instant r finishes
// verifying the object and announces it. If the INV's place comes first, r
// knows s holds the object and does not announce it back; if the
// verification's does, r announces to s as well. The INV is put on its way
// by hand — as a record and an event on one network, through lazyInv on the
// other — so that both take the same place at the same time.
func TestLazyInvExactTie(t *testing.T) {
	const delay = 40 * time.Millisecond
	for _, invFirst := range []bool{true, false} {
		var sent [2]uint64
		for k, ticket := range []bool{false, true} {
			net, err := NewNetwork(twinConfig(0))
			if err != nil {
				t.Fatal(err)
			}
			var nodes [3]*Node // a sends r the object; s announces it to r
			for i := range nodes {
				nodes[i] = net.AddNode(geo.DefaultPlacer().Place(net.Streams().Stream("placement")))
			}
			a, r, s := nodes[0], nodes[1], nodes[2]
			if err := net.Connect(a.ID(), r.ID()); err != nil {
				t.Fatal(err)
			}
			if err := net.Connect(s.ID(), r.ID()); err != nil {
				t.Fatal(err)
			}
			tx := chain.Coinbase(1, 1000, chain.Address{})
			hi, gen := net.hashSlot(tx.ID()), net.invGen
			s.storeTx(hi, tx)
			r.invEnsure(hi).reqGen = gen // r has asked a for it
			verify := func() {
				idx := net.dc.newFlight()
				net.dc.flight[idx] = delivery{src: a, dst: r, tx: tx, hi: hi, gen: gen}
				net.sched.AfterIndexed(delay, net.verifyTag, idx)
			}
			inv := func() {
				pos := r.peerPos(s)
				if ticket {
					if !r.lazyInv(pos, hi, delay) {
						t.Fatal("r has a GETDATA out and still wants the INV as an event")
					}
					return
				}
				idx := net.dc.newFlight()
				net.dc.flight[idx] = delivery{src: s, dst: r, dstEpoch: r.tabEpoch, srcPos: int16(pos), cmd: wire.CmdInv, tx: tx, hi: hi, gen: gen}
				net.sched.AfterIndexed(delay, net.arriveTag, idx)
			}
			if invFirst {
				inv()
				verify()
			} else {
				verify()
				inv()
			}
			if err := net.RunUntil(context.Background(), sim.Time(delay)); err != nil {
				t.Fatal(err)
			}
			if at, ok := r.FirstSeen(tx.ID()); !ok || at != sim.Time(delay) {
				t.Fatalf("r accepted the transaction at %v (%v), want %v", at, ok, delay)
			}
			if !r.holderHas(hi, r.peerPos(s)) {
				t.Errorf("INV first %v, ticket %v: r does not know s holds the transaction once the instant is over", invFirst, ticket)
			}
			sent[k] = net.Stats().Messages[wire.CmdInv]
		}
		// r announces to a never (the object came from it), to s only when
		// the verification came first.
		want := uint64(1)
		if invFirst {
			want = 0
		}
		if sent[0] != want || sent[1] != want {
			t.Errorf("INV first %v: r sent %d INVs with the INV an event, %d with it a ticket, want %d", invFirst, sent[0], sent[1], want)
		}
	}
}
