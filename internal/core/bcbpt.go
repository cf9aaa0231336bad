// Package core implements BCBPT — the Bitcoin Clustering Based Ping Time
// protocol, the contribution of the paper (§IV).
//
// BCBPT converts the Bitcoin overlay "from normal randomised neighbour
// selection to proximity based latency selection". Each joining node:
//
//  1. learns candidate peers from the DNS seed, which recommends nodes
//     that are geographically close (geography is "many times a good
//     indication of topologic distance", §IV.B);
//  2. measures the round-trip ping latency to each candidate repeatedly
//     ("multiple messages between pairs of nodes ... to determine
//     variance", §IV.A), feeding an RTT estimator per candidate that the
//     join record keeps until it decides;
//  3. if the best measured distance is below the threshold dt (eq. 1:
//     D(i,j) < Dth), sends a JOIN to that closest node K and receives the
//     membership list of K's cluster (CLUSTER message), then peers with
//     members of that cluster only;
//  4. otherwise founds a new cluster of its own;
//  5. in either case keeps a few long-distance links to nodes outside its
//     cluster, "giving the visibility into the available information from
//     the outside cluster" (§IV).
//
// A node's cluster is fixed for its session: the join decides it and only
// leaving releases it. §IV.B's periodic phase ("Periodically, Node N
// discovers other nodes using the normal Bitcoin network nodes discovery
// mechanism. Then, node N finds out whether the discovered nodes are
// physically close by following the distance calculation mechanism.") is
// not modelled: under churn the joins alone keep ≥ 99.8 % of nodes
// clustered (1000 nodes, 100 injections, seeds 1–3), where a migrate
// round every 2 s made 1,837–2,756 migrations and at seed 1 cut the
// measuring node's Δt samples 3,506 → 1,559 and raised their IQR 33 → 254
// ms. Departure needs no action ("when the node N wants to leave the
// network ... no further action is required").
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// ClusterID identifies a BCBPT cluster. Zero means "not clustered yet".
type ClusterID uint64

// Config parameterises BCBPT.
type Config struct {
	// Threshold is dt of eq. (1): two nodes are close when the measured
	// round-trip distance is below it. The paper's headline experiments
	// use 25ms (Fig. 3) and sweep {30, 50, 100}ms (Fig. 4).
	Threshold time.Duration
	// ProbeCount is how many pings are sent per candidate (>= 3 so the
	// estimator is Ready; repeated measurement per §IV.A).
	ProbeCount int
	// ProbeGap spaces the pings of one candidate.
	ProbeGap time.Duration
	// Candidates is how many DNS-recommended nodes a joiner measures.
	Candidates int
	// IntraLinks is the target number of same-cluster connections.
	// Zero defaults to MaxOutbound - LongLinks.
	IntraLinks int
	// LongLinks is the number of out-of-cluster links kept per node.
	LongLinks int
	// JoinStagger is the bootstrap spacing between node joins. The
	// paper's experiment lets each node run discovery every 100ms.
	JoinStagger time.Duration
	// JoinLanes is how many nodes join per JoinStagger tick during
	// bootstrap. 1 reproduces the strictly serial join sequence; 0 picks
	// a population-derived default (serial below ~500 nodes, wider lanes
	// at paper scale so a 5000-node bootstrap does not spend 500s of
	// virtual time joining one node at a time). The lane count is a
	// protocol parameter, never a host-parallelism knob: it is a pure
	// function of the configuration and population.
	JoinLanes int
	// DecisionSlack bounds how long a joiner waits for probe replies
	// beyond the probing schedule itself before deciding.
	DecisionSlack time.Duration
	// MemberSample caps how many member addresses a CLUSTER reply
	// carries.
	MemberSample int
}

// DefaultConfig returns the paper's experimental parameters (dt = 25ms).
func DefaultConfig() Config {
	return Config{
		Threshold:     25 * time.Millisecond,
		ProbeCount:    3,
		ProbeGap:      20 * time.Millisecond,
		Candidates:    16,
		LongLinks:     2,
		JoinStagger:   100 * time.Millisecond,
		DecisionSlack: 2 * time.Second,
		MemberSample:  64,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Threshold <= 0 {
		return fmt.Errorf("core: Threshold = %v, must be positive", c.Threshold)
	}
	if c.ProbeCount < 1 {
		return fmt.Errorf("core: ProbeCount = %d, must be >= 1", c.ProbeCount)
	}
	if c.Candidates < 1 {
		return fmt.Errorf("core: Candidates = %d, must be >= 1", c.Candidates)
	}
	if c.LongLinks < 0 {
		return fmt.Errorf("core: LongLinks = %d, must be >= 0", c.LongLinks)
	}
	if c.JoinLanes < 0 {
		return fmt.Errorf("core: JoinLanes = %d, must be >= 0", c.JoinLanes)
	}
	if c.MemberSample < 1 {
		return fmt.Errorf("core: MemberSample = %d, must be >= 1", c.MemberSample)
	}
	return nil
}

// Stats counts protocol events for the overhead evaluation.
type Stats struct {
	// Joins counts accepted JOIN exchanges.
	Joins uint64
	// Rejects counts refused JOINs.
	Rejects uint64
	// Founded counts clusters created because no candidate was close
	// enough (or all JOIN attempts failed).
	Founded uint64
	// Probes counts measurement pings initiated.
	Probes uint64
}

// BCBPT drives the protocol across the whole simulated network. The
// central membership registry represents the aggregate of per-node views:
// joins are serialized through JOIN/CLUSTER wire messages, so every
// registry transition corresponds to a message a real deployment would
// also have seen.
type BCBPT struct {
	net  *p2p.Network
	seed *topology.DNSSeed
	cfg  Config
	r    *rand.Rand

	intra int

	clusterOf map[p2p.NodeID]ClusterID
	members   map[ClusterID][]p2p.NodeID
	nextID    ClusterID

	// joins holds the joins under way, from startJoin until finishJoin or
	// OnLeave.
	joins joinTable

	// perm is handleJoin's scratch for the permutation it samples a large
	// cluster's members by.
	perm []int
	// ranked is recommend's scratch: the DNS ranking a joiner filters down
	// to the candidates it probes.
	ranked []p2p.NodeID

	stats Stats
}

var _ topology.Protocol = (*BCBPT)(nil)

// New creates a BCBPT instance over the network. It hears JOIN and
// CLUSTER through Network.OnMessage and takes each back to send again once
// read, so a network carries one BCBPT: a second would answer, and take
// back, the first one's messages too.
func New(net *p2p.Network, seed *topology.DNSSeed, cfg Config) (*BCBPT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	intra := cfg.IntraLinks
	if intra <= 0 {
		intra = net.Config().MaxOutbound - cfg.LongLinks
		if intra < 1 {
			intra = 1
		}
	}
	b := &BCBPT{
		net:       net,
		seed:      seed,
		cfg:       cfg,
		r:         net.Streams().Stream("topology/bcbpt"),
		intra:     intra,
		clusterOf: make(map[p2p.NodeID]ClusterID),
		members:   make(map[ClusterID][]p2p.NodeID),
	}
	prevRTT := net.OnRTT
	net.OnRTT = func(prober *p2p.Node, target p2p.NodeID, rtt time.Duration) {
		if prevRTT != nil {
			prevRTT(prober, target, rtt)
		}
		b.joins.observe(prober, target, rtt)
	}
	prevMsg := net.OnMessage
	net.OnMessage = func(node *p2p.Node, from p2p.NodeID, msg wire.Message) {
		if prevMsg != nil {
			prevMsg(node, from, msg)
		}
		switch m := msg.(type) {
		case *wire.MsgJoin:
			b.handleJoin(node, from, m)
		case *wire.MsgCluster:
			b.handleCluster(node, from, m)
		}
		// Read, a JOIN or CLUSTER is BCBPT's to send again.
		b.joins.recycle(msg)
	}
	return b, nil
}

// Name implements topology.Protocol.
func (b *BCBPT) Name() string { return fmt.Sprintf("bcbpt(dt=%v)", b.cfg.Threshold) }

// Stats returns a snapshot of the protocol counters.
func (b *BCBPT) Stats() Stats { return b.stats }

// Config returns the protocol configuration.
func (b *BCBPT) Config() Config { return b.cfg }

// ClusterOf returns the cluster of a node (0, false if not yet clustered).
func (b *BCBPT) ClusterOf(id p2p.NodeID) (ClusterID, bool) {
	c, ok := b.clusterOf[id]
	return c, ok
}

// Clusters returns a copy of the membership map.
func (b *BCBPT) Clusters() map[ClusterID][]p2p.NodeID {
	out := make(map[ClusterID][]p2p.NodeID, len(b.members))
	for k, v := range b.members {
		out[k] = append([]p2p.NodeID(nil), v...)
	}
	return out
}

// NumClustered returns how many nodes have completed clustering.
func (b *BCBPT) NumClustered() int { return len(b.clusterOf) }

// lanesFor resolves the effective join-lane width for an n-node
// bootstrap: the configured JoinLanes, or a population-derived default —
// serial below 512 nodes (matching the paper's one-at-a-time discovery
// loop at experiment scale), then one extra lane per 512 nodes capped at
// 16 so paper-scale virtual bootstrap time stays in the tens of seconds.
func (c Config) lanesFor(n int) int {
	lanes := c.JoinLanes
	if lanes == 0 {
		lanes = 1 + n/512
		if lanes > 16 {
			lanes = 16
		}
	}
	if n > 0 && lanes > n {
		lanes = n
	}
	return lanes
}

// Bootstrap implements topology.Protocol: nodes join in JoinLanes-wide
// waves spaced by JoinStagger, each executing the full measure-then-join
// procedure in virtual time (within a wave, lower IDs join first — the
// scheduler breaks virtual-time ties by schedule order). Run the network
// afterwards to let it complete; see BootstrapDeadline. Every node is
// registered with the DNS seed before the first join runs, and each join
// asks the seed for its candidates when it runs, as a churn arrival does.
// A Bootstrap whose ctx is already cancelled returns an error wrapping
// ctx.Err() having registered and scheduled nothing.
//
// Every join's place in the (at, seq) order is reserved up front
// (sim.Scheduler.Reserve), where scheduling it would have put it, and only
// the first is redeemed: each join redeems the next as it runs, so the
// queue holds one pending join, not the population.
func (b *BCBPT) Bootstrap(ctx context.Context, ids []p2p.NodeID) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: bootstrap: %w", err)
	}
	for _, id := range ids {
		if node, ok := b.net.Node(id); ok {
			b.seed.Register(id, node.Location())
		}
	}
	if len(ids) == 0 {
		return nil
	}
	sched := b.net.Scheduler()
	lanes := b.cfg.lanesFor(len(ids))
	q := &joinQueue{ids: slices.Clone(ids), places: make([]sim.Ticket, len(ids))}
	for i := range ids {
		q.places[i] = sched.Reserve(time.Duration(i/lanes) * b.cfg.JoinStagger)
	}
	var tag uint32
	tag = sched.Handle(func(idx int32) {
		i := int(idx)
		id := q.ids[i]
		if i+1 < len(q.ids) {
			sched.Redeem(q.places[i+1], tag, idx+1)
		} else {
			*q = joinQueue{} // the last join: release the schedule
		}
		b.startJoin(id)
	})
	sched.Redeem(q.places[0], tag, 0)
	return nil
}

// joinQueue is a bootstrap's join schedule, indexed like its ids: the
// reserved place of every join.
type joinQueue struct {
	ids    []p2p.NodeID
	places []sim.Ticket
}

// BootstrapDeadline estimates the virtual time by which an n-node
// bootstrap has settled, derived from the lane-sharded join schedule:
// the last wave starts at floor((n-1)/lanes) staggers, then needs its
// probing window plus slack to decide.
func (b *BCBPT) BootstrapDeadline(n int) time.Duration {
	probing := time.Duration(b.cfg.ProbeCount)*b.cfg.ProbeGap + 2*b.cfg.DecisionSlack
	waves := 0
	if n > 0 {
		waves = (n - 1) / b.cfg.lanesFor(n)
	}
	return time.Duration(waves)*b.cfg.JoinStagger + probing + 5*time.Second
}

// OnJoin implements topology.Protocol.
func (b *BCBPT) OnJoin(id p2p.NodeID) {
	node, ok := b.net.Node(id)
	if !ok {
		return
	}
	b.seed.Register(id, node.Location())
	b.startJoin(id)
}

// OnLeave implements topology.Protocol. Per the paper, departure requires
// no protocol action beyond forgetting the node.
func (b *BCBPT) OnLeave(id p2p.NodeID) {
	b.seed.Remove(id)
	b.unassign(id)
	if node, ok := b.net.Node(id); ok {
		b.joins.release(node.Slot(), id)
	}
}

// OnDisconnect implements topology.Protocol: survivors refill their
// cluster links and long links.
func (b *BCBPT) OnDisconnect(x, y p2p.NodeID) {
	if _, ok := b.net.Node(x); ok {
		b.fill(x)
	}
	if _, ok := b.net.Node(y); ok {
		b.fill(y)
	}
}

// --- membership registry ---

// assign enters an unclustered node into cluster c; only OnLeave takes it out.
func (b *BCBPT) assign(id p2p.NodeID, c ClusterID) {
	b.clusterOf[id] = c
	m := b.members[c]
	i, _ := slices.BinarySearch(m, id)
	b.members[c] = slices.Insert(m, i, id)
	if tr := b.net.Trace(); tr != nil {
		tr.Record(obs.Event{At: b.net.Now(), Kind: obs.KindClusterAssign, P1: uint64(id), P2: uint64(c), P3: uint64(len(m) + 1)})
	}
}

func (b *BCBPT) unassign(id p2p.NodeID) {
	c, ok := b.clusterOf[id]
	if !ok {
		return
	}
	delete(b.clusterOf, id)
	m := b.members[c]
	if i, ok := slices.BinarySearch(m, id); ok {
		m = slices.Delete(m, i, i+1)
	}
	if len(m) == 0 {
		delete(b.members, c)
	} else {
		b.members[c] = m
	}
}

// found creates a fresh cluster containing only id.
func (b *BCBPT) found(id p2p.NodeID) {
	b.nextID++
	b.assign(id, b.nextID)
	b.stats.Founded++
}

// --- join procedure ---

// startJoin launches the measure-then-join procedure for a node: it asks
// the DNS seed for the nodes geographically nearest to it (§IV.B) and
// probes the clustered ones among them.
func (b *BCBPT) startJoin(id p2p.NodeID) {
	node, ok := b.net.Node(id)
	if !ok {
		return
	}
	slot := node.Slot()
	if b.joins.of(slot, id) != nil {
		return
	}
	if _, clustered := b.clusterOf[id]; clustered {
		return
	}
	j := b.joins.open(slot, id)
	j.cands = b.clusteredPrefix(j.cands[:0], b.recommend(id, node.Location()))
	if len(j.cands) == 0 {
		// First node (or empty world): found the first cluster.
		b.finishJoin(node, 0, nil)
		return
	}
	j.ests = slices.Grow(j.ests[:0], len(j.cands))[:len(j.cands)]
	clear(j.ests)
	b.stats.Probes += uint64(len(j.cands) * b.cfg.ProbeCount)
	node.ProbeN(j.cands, b.cfg.ProbeCount, b.cfg.ProbeGap)
	// Decide once the probing schedule plus slack has elapsed; replies
	// that miss the deadline are treated as losses, like a real timeout.
	deadline := time.Duration(b.cfg.ProbeCount)*b.cfg.ProbeGap + b.cfg.DecisionSlack
	b.net.Scheduler().After(deadline, func() {
		b.decide(node)
	})
}

// recommend asks the DNS seed for the nodes geographically nearest to id
// (§IV.B). The ranking is written to one buffer the BCBPT reuses, so it
// holds only until the next call.
func (b *BCBPT) recommend(id p2p.NodeID, loc geo.Location) []p2p.NodeID {
	b.ranked = b.seed.AppendRecommend(b.ranked[:0], id, loc, b.rankLen())
	return b.ranked
}

// rankLen is how many nodes a DNS recommendation asks for: four times
// Candidates, because unclustered recommendations are filtered out before
// probing.
func (b *BCBPT) rankLen() int { return 4 * b.cfg.Candidates }

// clusteredPrefix appends to out the first Candidates clustered nodes of a
// DNS recommendation, keeping its nearest-first order.
func (b *BCBPT) clusteredPrefix(out, ranked []p2p.NodeID) []p2p.NodeID {
	for _, r := range ranked {
		if _, clustered := b.clusterOf[r]; !clustered {
			continue
		}
		out = append(out, r)
		if len(out) == b.cfg.Candidates {
			break
		}
	}
	return out
}

// decide picks the closest measured candidate and either JOINs its
// cluster or founds a new one (eq. 1 threshold test), from the join's
// estimators. Round trips taken in after the decision feed nothing.
func (b *BCBPT) decide(node *p2p.Node) {
	id, slot := node.ID(), node.Slot()
	j := b.joins.of(slot, id)
	if j == nil {
		return // the node left
	}
	if _, ok := b.net.Node(id); !ok {
		b.joins.release(slot, id)
		return
	}
	node.FoldPongs()
	// Prefer converged estimators (>= 3 samples); if the probe budget is
	// too small for any to converge, fall back to whatever was measured —
	// a noisy decision is the protocol's behaviour at low probe budgets,
	// not a refusal to cluster (exercised by the probe-count ablation).
	// One pass keeps both: the first strictly closest ready candidate and
	// the first strictly closest of any. The minimum observed RTT is the
	// congestion-free distance estimate used in the closeness test.
	var best, anyBest p2p.NodeID
	bestRTT := time.Duration(1<<62 - 1)
	anyRTT := bestRTT
	for k, c := range j.cands {
		est := &j.ests[k]
		if est.Samples() == 0 {
			continue
		}
		rtt := est.Min()
		if rtt < anyRTT {
			anyBest, anyRTT = c, rtt
		}
		if est.Ready() && rtt < bestRTT {
			best, bestRTT = c, rtt
		}
	}
	j.cands = j.cands[:0]
	if best == 0 {
		best, bestRTT = anyBest, anyRTT
	}
	join := best != 0 && bestRTT < b.cfg.Threshold
	if tr := b.net.Trace(); tr != nil {
		ev := obs.Event{At: b.net.Now(), Kind: obs.KindJoinDecision, Code: obs.FoundCluster, P1: uint64(id), P2: uint64(best)}
		if best != 0 {
			ev.P3 = uint64(bestRTT)
		}
		if join {
			ev.Code = obs.JoinCluster
		}
		tr.Record(ev)
	}
	if !join {
		// No node within dt: the node founds its own cluster.
		b.finishJoin(node, 0, nil)
		return
	}
	// JOIN the closest node K's cluster.
	b.sendJoin(node, best, bestRTT)
	// If the CLUSTER reply never arrives (K churned away), fall back to
	// founding a cluster.
	b.net.Scheduler().After(b.cfg.DecisionSlack, func() {
		if b.joins.of(slot, id) != nil {
			b.finishJoin(node, 0, nil)
		}
	})
}

// sendJoin sends node's JOIN to to, claiming the measured round trip rtt,
// in a JOIN from the join table's free list.
func (b *BCBPT) sendJoin(node *p2p.Node, to p2p.NodeID, rtt time.Duration) {
	m := b.joins.newJoin()
	*m = wire.MsgJoin{
		Self:              wire.NetAddr{NodeID: uint64(node.ID())},
		MeasuredRTTMicros: uint64(rtt / time.Microsecond),
	}
	node.Send(to, m)
}

// finishJoin completes a join and releases its record: cluster == 0 founds
// a new cluster, otherwise the node enters the given cluster and connects
// to the provided members. A node that has left enters nothing.
func (b *BCBPT) finishJoin(node *p2p.Node, cluster ClusterID, members []p2p.NodeID) {
	id := node.ID()
	b.joins.release(node.Slot(), id)
	if _, ok := b.net.Node(id); !ok {
		return
	}
	if cluster == 0 {
		b.found(id)
	} else {
		b.assign(id, cluster)
	}
	b.fillWith(id, members)
}

// joinTable holds the joins under way (§IV.A), one record per joiner from
// startJoin until finishJoin or OnLeave: its candidates in clusteredPrefix
// order and one RTT estimator each, fed by Network.OnRTT until the join
// decides. A node has a record exactly while it is joining. bySlot[s]-1
// indexes joins for the joiner in node slot s, zero for none, and the record
// names the joiner by ID, so a round trip, a decision or a reply of a node
// that has left, its slot since taken, finds nothing of the newcomer's. A
// released record waits on free, buffers and all, for the next joiner; once
// no join is under way the records go too, so a built network keeps none.
//
// The exchange's memory lives here as well and goes by the same rule: the
// JOINs and CLUSTER replies their receivers have read, waiting to be sent
// again, and the member list handleCluster hands finishJoin. A message
// lost on the way, or addressed to a node that has gone, never comes back,
// and the collector takes it.
type joinTable struct {
	bySlot []int32
	joins  []joinRecord
	free   []int32

	joinMsgs    []*wire.MsgJoin
	clusterMsgs []*wire.MsgCluster
	members     []p2p.NodeID
}

// joinRecord is one join under way: ests[k] measures cands[k]. The
// decision empties cands, so nothing measured after it is kept.
type joinRecord struct {
	id    p2p.NodeID
	cands []p2p.NodeID
	ests  []latency.Estimator
}

// open gives the joiner id in slot a record, the one a node that left the
// slot still held included.
func (p *joinTable) open(slot int, id p2p.NodeID) *joinRecord {
	if slot >= len(p.bySlot) {
		p.bySlot = append(p.bySlot, make([]int32, slot+1-len(p.bySlot))...)
	}
	if p.bySlot[slot] != 0 {
		p.release(slot, p.joins[p.bySlot[slot]-1].id)
	}
	var ji int32
	if last := len(p.free) - 1; last >= 0 {
		ji = p.free[last]
		p.free = p.free[:last]
	} else {
		ji = int32(len(p.joins))
		p.joins = append(p.joins, joinRecord{})
	}
	p.bySlot[slot] = ji + 1
	j := &p.joins[ji]
	j.id = id
	return j
}

// of returns the record of the joiner id in slot, nil for none.
func (p *joinTable) of(slot int, id p2p.NodeID) *joinRecord {
	if slot >= len(p.bySlot) || p.bySlot[slot] == 0 {
		return nil
	}
	if j := &p.joins[p.bySlot[slot]-1]; j.id == id {
		return j
	}
	return nil
}

// release ends the record of the joiner id in slot, if it has one.
func (p *joinTable) release(slot int, id p2p.NodeID) {
	if p.of(slot, id) == nil {
		return
	}
	ji := p.bySlot[slot] - 1
	p.bySlot[slot] = 0
	p.joins[ji].id = 0
	p.free = append(p.free, ji)
	if len(p.free) == len(p.joins) {
		*p = joinTable{bySlot: p.bySlot}
	}
}

// newJoin returns a JOIN to fill: one a receiver has read, or a new one.
func (p *joinTable) newJoin() *wire.MsgJoin {
	if last := len(p.joinMsgs) - 1; last >= 0 {
		m := p.joinMsgs[last]
		p.joinMsgs = p.joinMsgs[:last]
		return m
	}
	return new(wire.MsgJoin)
}

// newCluster returns a CLUSTER reply to fill: one a receiver has read, or a
// new one whose Members has room for sample addresses.
func (p *joinTable) newCluster(sample int) *wire.MsgCluster {
	if last := len(p.clusterMsgs) - 1; last >= 0 {
		m := p.clusterMsgs[last]
		p.clusterMsgs = p.clusterMsgs[:last]
		return m
	}
	return &wire.MsgCluster{Members: make([]wire.NetAddr, 0, sample)}
}

// recycle takes back a JOIN or CLUSTER reply its receiver has read, for
// the next send, and ignores any other message. With no join under way it
// keeps nothing, as it keeps no record.
func (p *joinTable) recycle(msg wire.Message) {
	if len(p.joins) == 0 {
		return
	}
	switch m := msg.(type) {
	case *wire.MsgJoin:
		p.joinMsgs = append(p.joinMsgs, m)
	case *wire.MsgCluster:
		p.clusterMsgs = append(p.clusterMsgs, m)
	}
}

// observe feeds a round trip the prober took in to its join's estimator
// for target; one that no undecided join asked for is not kept.
func (p *joinTable) observe(prober *p2p.Node, target p2p.NodeID, rtt time.Duration) {
	j := p.of(prober.Slot(), prober.ID())
	if j == nil {
		return
	}
	if k := slices.Index(j.cands, target); k >= 0 {
		j.ests[k].Observe(rtt)
	}
}

// --- wire message handling (JOIN / CLUSTER), from Network.OnMessage ---

// handleJoin runs at the closest node K: accept if the reported distance
// is within K's threshold and K itself is clustered. The reply comes from
// the join table's free list, and its Members is filled in place.
func (b *BCBPT) handleJoin(node *p2p.Node, from p2p.NodeID, m *wire.MsgJoin) {
	cluster, clustered := b.clusterOf[node.ID()]
	rtt := time.Duration(m.MeasuredRTTMicros) * time.Microsecond
	reply := b.joins.newCluster(b.cfg.MemberSample)
	sample := reply.Members[:0]
	if !clustered || rtt >= b.cfg.Threshold {
		b.stats.Rejects++
		*reply = wire.MsgCluster{Members: sample}
		node.Send(from, reply)
		return
	}
	b.stats.Joins++
	// Sample members for the reply ("a list of IPs of nodes that belong
	// to the same cluster", §IV.B), capped to keep the message bounded.
	all := b.members[cluster]
	if len(all) <= b.cfg.MemberSample {
		for _, mID := range all {
			sample = append(sample, wire.NetAddr{NodeID: uint64(mID)})
		}
	} else {
		b.perm = permInto(b.r, b.perm, len(all))
		picked := b.perm[:b.cfg.MemberSample]
		sort.Ints(picked)
		for _, i := range picked {
			sample = append(sample, wire.NetAddr{NodeID: uint64(all[i])})
		}
	}
	*reply = wire.MsgCluster{ClusterID: uint64(cluster), Accepted: true, Members: sample}
	node.Send(from, reply)
}

// permInto is r.Perm(n) written into buf, grown as needed: the same Intn
// calls in the same order, so the same permutation and the same stream
// after it, without a slice per call.
func permInto(r *rand.Rand, buf []int, n int) []int {
	buf = slices.Grow(buf[:0], n)[:n]
	for i := range buf {
		j := r.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

// handleCluster runs at the joiner when K's reply arrives. The member list
// is read into the join table's buffer, which the next reply overwrites:
// finishJoin's fillWith only reads it, and Connect fires no hook that
// could bring that reply in first.
func (b *BCBPT) handleCluster(node *p2p.Node, from p2p.NodeID, m *wire.MsgCluster) {
	self := node.ID()
	if b.joins.of(node.Slot(), self) == nil {
		return // late or duplicate reply
	}
	if !m.Accepted {
		b.finishJoin(node, 0, nil)
		return
	}
	members := append(slices.Grow(b.joins.members[:0], len(m.Members)+1), from)
	for _, a := range m.Members {
		if id := p2p.NodeID(a.NodeID); id != self && id != from {
			members = append(members, id)
		}
	}
	b.joins.members = members
	b.finishJoin(node, ClusterID(m.ClusterID), members)
}

// --- link management ---

// fill restores a node's intra and long link targets using the registry.
func (b *BCBPT) fill(id p2p.NodeID) { b.fillWith(id, nil) }

// fillWith connects a node to preferred members first (the CLUSTER list,
// closest node K at the head), then random cluster members, then long
// links outside the cluster.
func (b *BCBPT) fillWith(id p2p.NodeID, preferred []p2p.NodeID) {
	node, ok := b.net.Node(id)
	if !ok {
		return
	}
	cluster, clustered := b.clusterOf[id]
	if !clustered {
		return
	}
	// Connect returns nil exactly when it adds the link, and evicts nobody,
	// so the counts taken once here stay true by counting what it adds.
	intra, long := b.linkCounts(node, cluster)
	for _, m := range preferred {
		if intra >= b.intra {
			break
		}
		if b.clusterOf[m] == cluster && b.net.Connect(id, m) == nil {
			intra++
		}
	}
	mates := b.members[cluster]
	attempts := 0
	maxAttempts := 10 * b.intra
	target := b.intra
	if len(mates)-1 < target {
		target = len(mates) - 1
	}
	for intra < target && attempts < maxAttempts {
		attempts++
		m := mates[b.r.Intn(len(mates))]
		if m == id {
			continue
		}
		if b.net.Connect(id, m) == nil {
			intra++
		}
	}
	// Long links: "each node maintains a few long distance links to the
	// outside cluster" (§IV).
	all := b.seed.All()
	attempts = 0
	maxAttempts = 10 * b.cfg.LongLinks
	for long < b.cfg.LongLinks && attempts < maxAttempts {
		attempts++
		m := all[b.r.Intn(len(all))]
		if m == id || b.clusterOf[m] == cluster {
			continue
		}
		if b.net.Connect(id, m) == nil {
			long++
		}
	}
}

// linkCounts counts a node's connections to same-cluster peers and those
// leaving the cluster. EachPeer keeps the scan allocation-free.
func (b *BCBPT) linkCounts(node *p2p.Node, cluster ClusterID) (intra, long int) {
	node.EachPeer(func(p p2p.NodeID) bool {
		if b.clusterOf[p] == cluster {
			intra++
		} else {
			long++
		}
		return true
	})
	return intra, long
}
