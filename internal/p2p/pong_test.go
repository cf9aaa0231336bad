package p2p

import (
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Probe twin: one script of ProbeN rounds, estimator reads and churn, run
// three ways — on a network with a tracer attached, where every pong is a
// record and an event; on the same network untraced, where every pong is a
// ticket its prober folds in when read (Node.FoldPongs); and on the oracle,
// ReferenceNetwork, which sends every ping from an event of its own and
// looks everything up by ID. At every checkpoint the clock, the traffic
// counters with Dropped and Lost, each prober's ordered stream of the round
// trips it took in (Network.OnRTT; the oracle's probe callbacks) and every
// estimator folded from those streams (rttBook) — samples, RTT, deviation
// and minimum, departed nodes' included — must agree, and so must what
// reader events saw in the middle of a run.

// rttBook is what a reader of a network's round trips keeps: every round
// trip a prober took in, per prober in the order taken in, and an
// estimator per (prober, target) pair folded from them. On a Network it
// hears Network.OnRTT (watchRTTs); the oracle's probe callbacks feed it
// the same way.
type rttBook struct {
	streams map[NodeID][]rttTaken
	ests    map[[2]NodeID]*latency.Estimator
	n       int // round trips taken in, all probers together
}

// rttTaken is one round trip a prober took in.
type rttTaken struct {
	target NodeID
	rtt    time.Duration
}

func newRTTBook() *rttBook {
	return &rttBook{streams: map[NodeID][]rttTaken{}, ests: map[[2]NodeID]*latency.Estimator{}}
}

// watchRTTs attaches a new book to net's OnRTT, after whatever hook is
// attached already.
func watchRTTs(net *Network) *rttBook {
	b := newRTTBook()
	prev := net.OnRTT
	net.OnRTT = func(p *Node, target NodeID, rtt time.Duration) {
		if prev != nil {
			prev(p, target, rtt)
		}
		b.observe(p.ID(), target, rtt)
	}
	return b
}

func (b *rttBook) observe(prober, target NodeID, rtt time.Duration) {
	b.streams[prober] = append(b.streams[prober], rttTaken{target, rtt})
	b.n++
	key := [2]NodeID{prober, target}
	if b.ests[key] == nil {
		b.ests[key] = &latency.Estimator{}
	}
	b.ests[key].Observe(rtt)
}

// estimator folds in the pongs that have landed at nd and returns its
// estimator for target, if it took in any round trip to it.
func (b *rttBook) estimator(nd *Node, target NodeID) (*latency.Estimator, bool) {
	nd.FoldPongs()
	e, ok := b.ests[[2]NodeID{nd.ID(), target}]
	return e, ok
}

// read is what the book holds of the prober's estimator for target.
func (b *rttBook) read(prober, target NodeID) estRead {
	e, ok := b.ests[[2]NodeID{prober, target}]
	if !ok {
		return estRead{}
	}
	return estRead{true, e.Samples(), e.RTT(), e.Var(), e.Min()}
}

// estRead is one estimator as a reader saw it: ok false for none.
type estRead struct {
	ok            bool
	samples       int
	rtt, dev, min time.Duration
}

// probeNet is what the script drives: a flat network or the oracle.
type probeNet interface {
	sched() *sim.Scheduler
	stats() Stats
	add() NodeID
	remove(id NodeID)
	probeN(a NodeID, targets []NodeID)
	// book is where the round trips the probers take in are kept.
	book() *rttBook
	est(a, b NodeID) estRead
	live(id NodeID) bool
}

type flatProbeNet struct {
	net   *Network
	rtts  *rttBook
	nodes map[NodeID]*Node // every node ever added
	// folded and redeemed count the pong tickets that removals found passed
	// and still on their way.
	folded, redeemed int
}

func (f *flatProbeNet) sched() *sim.Scheduler { return f.net.sched }
func (f *flatProbeNet) stats() Stats          { return f.net.Stats() }
func (f *flatProbeNet) live(id NodeID) bool   { _, ok := f.net.Node(id); return ok }

func (f *flatProbeNet) add() NodeID {
	nd := f.net.AddNode(geo.DefaultPlacer().Place(f.net.Streams().Stream("placement")))
	f.nodes[nd.ID()] = nd
	return nd.ID()
}

func (f *flatProbeNet) remove(id NodeID) {
	if nd, ok := f.net.Node(id); ok {
		for _, t := range f.net.pongs.of(nd.slot) {
			if f.net.sched.Passed(t.Ticket) {
				f.folded++
			} else {
				f.redeemed++
			}
		}
	}
	f.net.RemoveNode(id)
}

func (f *flatProbeNet) probeN(a NodeID, targets []NodeID) {
	if nd, ok := f.net.Node(a); ok {
		nd.ProbeN(targets, 3, probeGap)
	}
}

func (f *flatProbeNet) book() *rttBook { return f.rtts }
func (f *flatProbeNet) est(a, b NodeID) estRead {
	f.nodes[a].FoldPongs()
	return f.rtts.read(a, b)
}

type refProbeNet struct {
	net  *ReferenceNetwork
	rtts *rttBook
}

func (r *refProbeNet) sched() *sim.Scheduler { return r.net.sched }
func (r *refProbeNet) stats() Stats          { return r.net.Stats() }
func (r *refProbeNet) remove(id NodeID)      { r.net.RemoveNode(id) }
func (r *refProbeNet) live(id NodeID) bool   { _, ok := r.net.Node(id); return ok }

func (r *refProbeNet) add() NodeID {
	return r.net.AddNode(geo.DefaultPlacer().Place(r.net.streams.Stream("placement"))).ID()
}

// probeN is the three rounds a ProbeN stands for (ReferenceNode.ProbeN).
func (r *refProbeNet) probeN(a NodeID, targets []NodeID) {
	if nd, ok := r.net.Node(a); ok {
		nd.ProbeN(targets, 3, probeGap, func(b NodeID, rtt time.Duration) { r.rtts.observe(a, b, rtt) })
	}
}

func (r *refProbeNet) book() *rttBook          { return r.rtts }
func (r *refProbeNet) est(a, b NodeID) estRead { return r.rtts.read(a, b) }

// probeShot is everything compared at one checkpoint.
type probeShot struct {
	now   sim.Time
	stats Stats
	rtts  int
	reads int
	ests  []estRead // every (prober, target) pair of nodes ever added
	// taken is how many round trips each node ever added had taken in:
	// with the streams equal at the end, equal lengths here make them
	// equal at the checkpoint too, each stream only growing.
	taken []int
}

// probeScript is one side's run of the script.
type probeScript struct {
	t   *testing.T
	net probeNet
	r   *rand.Rand // the script's own choices, the same on every side
	ids []NodeID   // every node ever added
	// probers are the nodes that started a ProbeN, most recent last: the
	// ones readers and removals favour.
	probers []NodeID
	reads   []estRead
	shots   []probeShot
}

func newProbeScript(t *testing.T, net probeNet, n int) *probeScript {
	s := &probeScript{t: t, net: net, r: rand.New(rand.NewSource(5))}
	for i := 0; i < n; i++ {
		s.ids = append(s.ids, net.add())
	}
	return s
}

// pick returns a random node ever added, live or not.
func (s *probeScript) pick() NodeID { return s.ids[s.r.Intn(len(s.ids))] }

// pickLive returns a random live node.
func (s *probeScript) pickLive() NodeID {
	for {
		if id := s.pick(); s.net.live(id) {
			return id
		}
	}
}

// targets draws a ProbeN's target list: live nodes mostly, now and then a
// departed one or the ID the next joiner will get.
func (s *probeScript) targets(a NodeID) []NodeID {
	var out []NodeID
	for k := 1 + s.r.Intn(6); len(out) < k; {
		var id NodeID
		switch s.r.Intn(8) {
		case 0:
			id = s.pick()
		case 1:
			id = s.ids[len(s.ids)-1] + 1
		default:
			id = s.pickLive()
		}
		if id != a {
			out = append(out, id)
		}
	}
	return out
}

// read schedules a reader event d from now that records what a's
// estimators say of every node ever added.
func (s *probeScript) read(a NodeID, d time.Duration) {
	ids := append([]NodeID(nil), s.ids...)
	s.net.sched().After(d, func() {
		for _, b := range ids {
			s.reads = append(s.reads, s.net.est(a, b))
		}
	})
}

func (s *probeScript) runFor(d time.Duration) {
	if err := s.net.sched().RunUntil(s.net.sched().Now() + d); err != nil {
		s.t.Fatal(err)
	}
	s.shoot()
}

func (s *probeScript) drain() {
	if err := s.net.sched().Run(); err != nil {
		s.t.Fatal(err)
	}
	s.shoot()
}

// shoot reads every estimator before it counts the round trips taken in:
// untraced, the read is what folds the landed pongs in.
func (s *probeScript) shoot() {
	shot := probeShot{now: s.net.sched().Now(), stats: s.net.stats(), reads: len(s.reads)}
	for _, a := range s.ids {
		for _, b := range s.ids {
			shot.ests = append(shot.ests, s.net.est(a, b))
		}
	}
	book := s.net.book()
	for _, a := range s.ids {
		shot.taken = append(shot.taken, len(book.streams[a]))
	}
	shot.rtts = book.n
	s.shots = append(s.shots, shot)
}

// churnProbes is the twin's script: probers with rounds and pongs in flight
// leave, some of their pongs landed unread and some still on their way,
// targets leave under their pings, joiners take the freed slots, and
// readers look at the estimators from inside the run.
func churnProbes(s *probeScript) {
	for step := 0; step < 400; step++ {
		a := s.pickLive()
		if n := len(s.probers); n > 0 && s.r.Intn(3) > 0 {
			if p := s.probers[n-1-s.r.Intn(min(n, 8))]; s.net.live(p) {
				a = p
			}
		}
		switch op := s.r.Intn(10); {
		case op < 5:
			s.net.probeN(a, s.targets(a))
			s.probers = append(s.probers, a)
		case op == 5 || op == 6:
			s.read(a, time.Duration(s.r.Intn(80_000))*time.Microsecond)
		case op == 7:
			// A leave is an event, as churn's are: it can come after some
			// of the prober's pongs have landed and before the rest.
			if len(s.ids) < 80 {
				s.net.sched().After(time.Duration(s.r.Intn(80_000))*time.Microsecond, func() { s.net.remove(a) })
			}
		case op == 8:
			s.ids = append(s.ids, s.net.add())
		case op == 9:
			s.runFor(time.Duration(1+s.r.Intn(60)) * time.Millisecond)
		}
	}
	s.drain()
}

// requireProbeTwin runs script on a traced and an untraced network and on
// the oracle, and requires every checkpoint and every read equal. It
// returns the untraced side.
func requireProbeTwin(t *testing.T, cfg Config, n int, script func(*probeScript)) (*flatProbeNet, *probeScript) {
	t.Helper()
	var sides [3]*probeScript
	var flats [2]*flatProbeNet
	for i := range flats {
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			net.EnableTrace(obs.NewTracer(1<<10, 1))
		}
		flats[i] = &flatProbeNet{net: net, rtts: watchRTTs(net), nodes: map[NodeID]*Node{}}
		sides[i] = newProbeScript(t, flats[i], n)
	}
	ref, err := NewReferenceNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sides[2] = newProbeScript(t, &refProbeNet{net: ref, rtts: newRTTBook()}, n)
	for _, s := range sides {
		script(s)
	}
	names := [3]string{"traced", "untraced", "oracle"}
	want := sides[0]
	for i, s := range sides[1:] {
		name := names[i+1]
		if len(s.shots) != len(want.shots) || len(want.shots) == 0 {
			t.Fatalf("%d checkpoints traced, %d %s", len(want.shots), len(s.shots), name)
		}
		for k := range want.shots {
			a, b := want.shots[k], s.shots[k]
			switch {
			case a.now != b.now:
				t.Fatalf("checkpoint %d: clock %v traced, %v %s", k, a.now, b.now, name)
			case a.stats != b.stats:
				t.Fatalf("checkpoint %d: stats\ntraced %+v\n%s %+v", k, a.stats, name, b.stats)
			case a.rtts != b.rtts || a.reads != b.reads:
				t.Fatalf("checkpoint %d: %d round trips taken in and %d reads traced, %d and %d %s", k, a.rtts, a.reads, b.rtts, b.reads, name)
			case !slices.Equal(a.taken, b.taken):
				for j := range a.taken {
					if a.taken[j] != b.taken[j] {
						t.Fatalf("checkpoint %d: node %d had taken in %d round trips traced, %d %s", k, want.ids[j], a.taken[j], b.taken[j], name)
					}
				}
			case !reflect.DeepEqual(a.ests, b.ests):
				for j := range a.ests {
					if a.ests[j] != b.ests[j] {
						t.Fatalf("checkpoint %d: estimator of pair %d is %+v traced, %+v %s", k, j, a.ests[j], b.ests[j], name)
					}
				}
			}
		}
		if ws, ss := want.net.book().streams, s.net.book().streams; !reflect.DeepEqual(ws, ss) {
			for a := range ws {
				if !slices.Equal(ws[a], ss[a]) {
					t.Fatalf("the round trips node %d took in differ traced and %s:\n%v\n%v", a, name, ws[a], ss[a])
				}
			}
			t.Fatalf("round trips taken in differ traced and %s", name)
		}
		for j := range want.reads {
			if want.reads[j] != s.reads[j] {
				t.Fatalf("read %d: %+v traced, %+v %s", j, want.reads[j], s.reads[j], name)
			}
		}
	}
	// Not vacuous: the untraced network left pongs out of the queue.
	pongs := flats[0].net.Stats().Messages[wire.CmdPong]
	if te, le := flats[0].net.sched.Executed(), flats[1].net.sched.Executed(); le >= te || te-le > pongs {
		t.Fatalf("events: %d traced, %d untraced, with %d pongs sent", te, le, pongs)
	}
	return flats[1], sides[1]
}

// TestPongTicketsMatchTracedProbes runs the churn script with and without
// message loss.
func TestPongTicketsMatchTracedProbes(t *testing.T) {
	for _, loss := range []float64{0, 0.2} {
		untraced, s := requireProbeTwin(t, twinConfig(loss), 40, churnProbes)
		st := untraced.net.Stats()
		seen := 0
		for _, r := range s.reads {
			if r.ok {
				seen++
			}
		}
		if st.Dropped == 0 || (loss > 0) != (st.Lost > 0) || untraced.folded < 5 || untraced.redeemed < 5 || untraced.rtts.n == 0 || seen < 100 {
			t.Errorf("loss %g: %d dropped, %d lost, %d tickets folded and %d redeemed at removal, %d round trips taken in, %d reads with an estimator: the script did not exercise what it is for",
				loss, st.Dropped, st.Lost, untraced.folded, untraced.redeemed, untraced.rtts.n, seen)
		}
	}
}

// TestPongTicketExactTie puts a reader at the very instant a pong lands at
// its prober. The heap decides between the two by sequence number alone: a
// reader scheduled before the pong was sent runs first and sees no sample,
// one scheduled after it runs second and sees it — with the pong an event
// (traced) and a ticket (untraced) alike.
func TestPongTicketExactTie(t *testing.T) {
	setup := func(traced bool) (*Network, *Node, *Node) {
		net, nodes := testNetwork(t, 2, nil)
		if traced {
			net.EnableTrace(obs.NewTracer(1<<8, 1))
		}
		return net, nodes[0], nodes[1]
	}
	// Where the pong lands, from an untraced run: the ticket says.
	net, a, b := setup(false)
	a.ProbeN([]NodeID{b.ID()}, 1, probeGap)
	for len(net.pongs.of(a.slot)) == 0 {
		if _, err := net.sched.RunN(1); err != nil {
			t.Fatal(err)
		}
	}
	landing := net.pongs.of(a.slot)[0].At()
	for _, readerFirst := range []bool{true, false} {
		for _, traced := range []bool{false, true} {
			net, a, b := setup(traced)
			rtts := watchRTTs(net)
			seen := -1
			reader := func() {
				if net.Now() != landing {
					t.Fatalf("reader at %v, pong lands at %v", net.Now(), landing)
				}
				seen = 0
				if e, ok := rtts.estimator(a, b.ID()); ok {
					seen = e.Samples()
				}
			}
			if readerFirst {
				net.sched.At(landing, reader)
			}
			a.ProbeN([]NodeID{b.ID()}, 1, probeGap)
			if !readerFirst {
				// Run until the ping has landed and the pong is on its way,
				// then schedule the reader behind it.
				for net.Stats().Messages[wire.CmdPong] == 0 {
					if _, err := net.sched.RunN(1); err != nil {
						t.Fatal(err)
					}
				}
				net.sched.At(landing, reader)
			}
			if err := net.Run(); err != nil {
				t.Fatal(err)
			}
			want := 1
			if readerFirst {
				want = 0
			}
			if seen != want {
				t.Errorf("reader first %v, traced %v: the reader saw %d samples, want %d", readerFirst, traced, seen, want)
			}
		}
	}
}

// TestProbeRoundAllocatesNothing: on a warmed network a lone prober's
// ProbeN round trip — pings sent, every pong filed as a ticket and folded
// in — allocates nothing: its probe set and its pong list are reused, not
// made afresh each round (pongTable keeps one spare list). Traced, every
// pong is an event that handlePong takes, and a round allocates nothing
// either. Twenty rounds count as one run, so that growth amortised over
// rounds shows.
func TestProbeRoundAllocatesNothing(t *testing.T) {
	const targets, rounds = 16, 3
	net, nodes := testNetwork(t, 40, nil)
	prober := nodes[0]
	ids := make([]NodeID, targets)
	for i := range ids {
		ids[i] = nodes[1+i].ID()
	}
	taken := 0
	net.OnRTT = func(*Node, NodeID, time.Duration) { taken++ }
	round := func() {
		prober.ProbeN(ids, rounds, 20*time.Millisecond)
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
		prober.FoldPongs()
	}
	round()
	if taken == 0 || len(net.pongs.of(prober.slot)) != 0 {
		t.Fatalf("warm-up round took in %d round trips and left %d pong tickets", taken, len(net.pongs.of(prober.slot)))
	}
	rounds20 := func() {
		for i := 0; i < 20; i++ {
			round()
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection mid-count allocates in the runtime
	if allocs := testing.AllocsPerRun(1, rounds20); allocs != 0 {
		t.Errorf("20 ProbeN rounds allocate %v times", allocs)
	}
	tr := obs.NewTracer(1<<12, 1)
	net.EnableTrace(tr)
	round()
	if allocs := testing.AllocsPerRun(1, rounds20); allocs != 0 {
		t.Errorf("20 traced ProbeN rounds allocate %v times", allocs)
	}
	if tr.Len() == 0 {
		t.Fatal("the traced rounds recorded nothing")
	}
}

// TestIdlePongListsLetGo: a burst of concurrent probers that winds down
// leaves no more pong lists with capacity than the probers still in flight
// use, plus one spare — at every step, not only for the list just freed —
// so a network that once probed in a burst does not keep the burst's lists
// for its life.
func TestIdlePongListsLetGo(t *testing.T) {
	const probers, targets = 12, 4
	net, nodes := testNetwork(t, probers+targets, nil)
	ids := make([]NodeID, targets)
	for i := range ids {
		ids[i] = nodes[probers+i].ID()
	}
	for _, p := range nodes[:probers] {
		p.ProbeN(ids, 2, time.Millisecond)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	// Nobody has folded: every prober holds a list of passed tickets.
	withCap := func() (inUse, spare int) {
		for li, list := range net.pongs.lists {
			switch {
			case slices.Contains(net.pongs.free, int32(li)):
				if cap(list) > 0 {
					spare++
				}
			case cap(list) == 0:
				t.Fatalf("list %d is in use with no capacity", li)
			default:
				inUse++
			}
		}
		return inUse, spare
	}
	if inUse, _ := withCap(); inUse != probers {
		t.Fatalf("%d lists in use after a burst of %d probers", inUse, probers)
	}
	for i, p := range nodes[:probers] {
		p.FoldPongs()
		inUse, spare := withCap()
		if inUse != probers-1-i || spare > inUse+1 {
			t.Fatalf("after %d of %d probers folded: %d lists in use, %d spares with capacity", i+1, probers, inUse, spare)
		}
		if i == probers-2 && spare > 2 {
			t.Fatalf("a burst wound down to one prober leaves %d spare lists with capacity, want at most 2", spare)
		}
	}
	if _, spare := withCap(); spare != 1 {
		t.Fatalf("a network that has stopped probing keeps %d spare lists with capacity, want 1", spare)
	}
}
