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
//     variance", §IV.A), feeding an RTT estimator per candidate;
//  3. if the best measured distance is below the threshold dt (eq. 1:
//     D(i,j) < Dth), sends a JOIN to that closest node K and receives the
//     membership list of K's cluster (CLUSTER message), then peers with
//     members of that cluster only;
//  4. otherwise founds a new cluster of its own;
//  5. in either case keeps a few long-distance links to nodes outside its
//     cluster, "giving the visibility into the available information from
//     the outside cluster" (§IV).
//
// Cluster maintenance (§IV.B) runs as periodic re-evaluation: nodes keep
// discovering peers, re-measure, and migrate if they find a markedly
// closer cluster. Departure needs no action ("when the node N wants to
// leave the network ... no further action is required").
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/geo"
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
	// Migrations counts maintenance-driven cluster changes.
	Migrations uint64
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

	joining map[p2p.NodeID]bool

	// perm is handleJoin's scratch for the permutation it samples a large
	// cluster's members by.
	perm []int
	// ranked is recommend's scratch: the DNS ranking a joiner filters down
	// to the candidates it probes.
	ranked []p2p.NodeID

	stats Stats
}

var _ topology.Protocol = (*BCBPT)(nil)

// New creates a BCBPT instance over the network.
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
	return &BCBPT{
		net:       net,
		seed:      seed,
		cfg:       cfg,
		r:         net.Streams().Stream("topology/bcbpt"),
		intra:     intra,
		clusterOf: make(map[p2p.NodeID]ClusterID),
		members:   make(map[ClusterID][]p2p.NodeID),
		joining:   make(map[p2p.NodeID]bool),
	}, nil
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
			b.installHandler(node)
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
	b.installHandler(node)
	b.startJoin(id)
}

// OnLeave implements topology.Protocol. Per the paper, departure requires
// no protocol action beyond forgetting the node.
func (b *BCBPT) OnLeave(id p2p.NodeID) {
	b.seed.Remove(id)
	b.unassign(id)
	delete(b.joining, id)
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

func (b *BCBPT) assign(id p2p.NodeID, c ClusterID) {
	b.unassign(id)
	b.clusterOf[id] = c
	m := b.members[c]
	i, _ := slices.BinarySearch(m, id)
	b.members[c] = slices.Insert(m, i, id)
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
	if b.joining[id] {
		return
	}
	if _, clustered := b.clusterOf[id]; clustered {
		return
	}
	b.joining[id] = true

	cands := b.clusteredPrefix(b.recommend(id, node.Location()))
	if len(cands) == 0 {
		// First node (or empty world): found the first cluster.
		b.finishJoin(id, 0, nil)
		return
	}
	for _, c := range cands {
		b.stats.Probes += uint64(b.cfg.ProbeCount)
		node.ProbeN(c, b.cfg.ProbeCount, b.cfg.ProbeGap, nil)
	}
	// Decide once the probing schedule plus slack has elapsed; replies
	// that miss the deadline are treated as losses, like a real timeout.
	deadline := time.Duration(b.cfg.ProbeCount)*b.cfg.ProbeGap + b.cfg.DecisionSlack
	b.net.Scheduler().After(deadline, func() {
		b.decide(id, cands)
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

// clusteredPrefix returns the first Candidates clustered nodes of a DNS
// recommendation, keeping its nearest-first order.
func (b *BCBPT) clusteredPrefix(ranked []p2p.NodeID) []p2p.NodeID {
	out := make([]p2p.NodeID, 0, b.cfg.Candidates)
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
// cluster or founds a new one (eq. 1 threshold test).
func (b *BCBPT) decide(id p2p.NodeID, cands []p2p.NodeID) {
	node, ok := b.net.Node(id)
	if !ok {
		delete(b.joining, id)
		return
	}
	if _, clustered := b.clusterOf[id]; clustered {
		delete(b.joining, id)
		return
	}
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
	for _, c := range cands {
		est, ok := node.Estimator(c)
		if !ok || est.Samples() == 0 {
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
	if best == 0 {
		best, bestRTT = anyBest, anyRTT
	}
	if best == 0 || bestRTT >= b.cfg.Threshold {
		// No node within dt: the node founds its own cluster.
		b.finishJoin(id, 0, nil)
		return
	}
	// JOIN the closest node K's cluster.
	node.Send(best, &wire.MsgJoin{
		Self:              wire.NetAddr{NodeID: uint64(id)},
		MeasuredRTTMicros: uint64(bestRTT / time.Microsecond),
	})
	// If the CLUSTER reply never arrives (K churned away), fall back to
	// founding a cluster.
	b.net.Scheduler().After(b.cfg.DecisionSlack, func() {
		if _, clustered := b.clusterOf[id]; !clustered && b.joining[id] {
			if _, alive := b.net.Node(id); alive {
				b.finishJoin(id, 0, nil)
			} else {
				delete(b.joining, id)
			}
		}
	})
}

// finishJoin completes a join: cluster == 0 founds a new cluster,
// otherwise the node enters the given cluster and connects to the
// provided members.
func (b *BCBPT) finishJoin(id p2p.NodeID, cluster ClusterID, members []p2p.NodeID) {
	delete(b.joining, id)
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

// --- wire message handling (JOIN / CLUSTER) ---

// installHandler hooks BCBPT message processing into a node.
func (b *BCBPT) installHandler(node *p2p.Node) {
	id := node.ID()
	node.SetExtraHandler(func(from p2p.NodeID, msg wire.Message) {
		switch m := msg.(type) {
		case *wire.MsgJoin:
			b.handleJoin(id, from, m)
		case *wire.MsgCluster:
			b.handleCluster(id, from, m)
		}
	})
}

// handleJoin runs at the closest node K: accept if the reported distance
// is within K's threshold and K itself is clustered.
func (b *BCBPT) handleJoin(self, from p2p.NodeID, m *wire.MsgJoin) {
	node, ok := b.net.Node(self)
	if !ok {
		return
	}
	cluster, clustered := b.clusterOf[self]
	rtt := time.Duration(m.MeasuredRTTMicros) * time.Microsecond
	if !clustered || rtt >= b.cfg.Threshold {
		b.stats.Rejects++
		node.Send(from, &wire.MsgCluster{Accepted: false})
		return
	}
	b.stats.Joins++
	// Sample members for the reply ("a list of IPs of nodes that belong
	// to the same cluster", §IV.B), capped to keep the message bounded.
	all := b.members[cluster]
	sample := make([]wire.NetAddr, 0, min(len(all), b.cfg.MemberSample))
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
	node.Send(from, &wire.MsgCluster{
		ClusterID: uint64(cluster),
		Accepted:  true,
		Members:   sample,
	})
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

// handleCluster runs at the joiner when K's reply arrives.
func (b *BCBPT) handleCluster(self, from p2p.NodeID, m *wire.MsgCluster) {
	if !b.joining[self] {
		return // late or duplicate reply
	}
	if _, clustered := b.clusterOf[self]; clustered {
		return
	}
	if !m.Accepted {
		b.finishJoin(self, 0, nil)
		return
	}
	members := make([]p2p.NodeID, 0, len(m.Members)+1)
	members = append(members, from)
	for _, a := range m.Members {
		if id := p2p.NodeID(a.NodeID); id != self && id != from {
			members = append(members, id)
		}
	}
	b.finishJoin(self, ClusterID(m.ClusterID), members)
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
