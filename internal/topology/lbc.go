package topology

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/p2p"
)

// LBC is the authors' earlier Locality Based Clustering protocol (the
// paper's ref [6] and the comparison baseline of Fig. 3): peers cluster by
// physical geographic location — the implementation uses the country
// label, matching the paper's remark that BCBPT "aims to have clusters
// based on countries" as LBC does by construction — and keep a small
// number of long-distance links outside the cluster for global
// reachability.
//
// The paper's critique of LBC, which Fig. 3 quantifies, is that two
// geographically close nodes "may be actually quite far from each other in
// the physical internet"; LBC cannot see that, because it never measures
// the links it chooses.
type LBC struct {
	net  *p2p.Network
	seed *DNSSeed
	r    *rand.Rand

	// intra is the target number of same-cluster outbound links.
	intra int
	// longLinks is the number of out-of-cluster links per node.
	longLinks int
	// minCluster merges countries with fewer members into their
	// continental region cluster.
	minCluster int

	// members maps cluster key -> sorted member IDs.
	members map[string][]p2p.NodeID
	// clusterOf maps node -> cluster key.
	clusterOf map[p2p.NodeID]string
}

// LBCConfig parameterises the protocol.
type LBCConfig struct {
	// IntraLinks is the target same-cluster outbound degree (default:
	// MaxOutbound - LongLinks).
	IntraLinks int
	// LongLinks is the number of out-of-cluster links (default 2).
	LongLinks int
	// MinClusterSize is the smallest viable country cluster; smaller
	// countries merge into their region (default 8).
	MinClusterSize int
}

// NewLBC creates the protocol.
func NewLBC(net *p2p.Network, seed *DNSSeed, cfg LBCConfig) *LBC {
	if cfg.LongLinks <= 0 {
		cfg.LongLinks = 2
	}
	if cfg.IntraLinks <= 0 {
		cfg.IntraLinks = net.Config().MaxOutbound - cfg.LongLinks
		if cfg.IntraLinks < 1 {
			cfg.IntraLinks = 1
		}
	}
	if cfg.MinClusterSize <= 0 {
		cfg.MinClusterSize = 8
	}
	return &LBC{
		net:        net,
		seed:       seed,
		r:          net.Streams().Stream("topology/lbc"),
		intra:      cfg.IntraLinks,
		longLinks:  cfg.LongLinks,
		minCluster: cfg.MinClusterSize,
		members:    make(map[string][]p2p.NodeID),
		clusterOf:  make(map[p2p.NodeID]string),
	}
}

// Name implements Protocol.
func (t *LBC) Name() string { return "lbc" }

// clusterKey picks the cluster for a node: its country, unless the
// country's population is below MinClusterSize, in which case the
// continental region.
func (t *LBC) clusterKey(id p2p.NodeID, countryCount map[string]int) string {
	node, ok := t.net.Node(id)
	if !ok {
		return ""
	}
	loc := node.Location()
	if countryCount[loc.Country] >= t.minCluster {
		return "country/" + loc.Country
	}
	return "region/" + loc.Region
}

// Bootstrap implements Protocol: group by country (small countries by
// region), then wire intra-cluster plus long links. ctx is polled between
// batches of nodes during the wiring pass.
func (t *LBC) Bootstrap(ctx context.Context, ids []p2p.NodeID) error {
	countryCount := make(map[string]int)
	for _, id := range ids {
		if node, ok := t.net.Node(id); ok {
			t.seed.Register(id, node.Location())
			countryCount[node.Location().Country]++
		}
	}
	for _, id := range ids {
		key := t.clusterKey(id, countryCount)
		t.assign(id, key)
	}
	for i, id := range ids {
		if i%bootstrapCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("topology: lbc bootstrap interrupted at node %d of %d: %w", i, len(ids), err)
			}
		}
		t.fill(id)
	}
	return nil
}

// assign records membership, keeping member lists sorted.
func (t *LBC) assign(id p2p.NodeID, key string) {
	t.clusterOf[id] = key
	m := t.members[key]
	i, _ := slices.BinarySearch(m, id)
	t.members[key] = slices.Insert(m, i, id)
}

// unassign removes membership.
func (t *LBC) unassign(id p2p.NodeID) {
	key, ok := t.clusterOf[id]
	if !ok {
		return
	}
	delete(t.clusterOf, id)
	m := t.members[key]
	if i, ok := slices.BinarySearch(m, id); ok {
		m = slices.Delete(m, i, i+1)
	}
	if len(m) == 0 {
		delete(t.members, key)
	} else {
		t.members[key] = m
	}
}

// ClusterOf returns the cluster key for a node.
func (t *LBC) ClusterOf(id p2p.NodeID) (string, bool) {
	key, ok := t.clusterOf[id]
	return key, ok
}

// Clusters returns a copy of the cluster membership map.
func (t *LBC) Clusters() map[string][]p2p.NodeID {
	out := make(map[string][]p2p.NodeID, len(t.members))
	for k, v := range t.members {
		out[k] = append([]p2p.NodeID(nil), v...)
	}
	return out
}

// OnJoin implements Protocol: a new node joins the cluster of its country
// (or region if the country cluster is still too small).
func (t *LBC) OnJoin(id p2p.NodeID) {
	node, ok := t.net.Node(id)
	if !ok {
		return
	}
	loc := node.Location()
	t.seed.Register(id, loc)
	key := "country/" + loc.Country
	if len(t.members[key]) < t.minCluster {
		if len(t.members["region/"+loc.Region]) > 0 || len(t.members[key]) == 0 {
			key = "region/" + loc.Region
		}
	}
	t.assign(id, key)
	t.fill(id)
}

// OnLeave implements Protocol.
func (t *LBC) OnLeave(id p2p.NodeID) {
	t.seed.Remove(id)
	t.unassign(id)
}

// OnDisconnect implements Protocol: survivors refill their cluster links.
func (t *LBC) OnDisconnect(a, b p2p.NodeID) {
	if _, ok := t.net.Node(a); ok {
		t.fill(a)
	}
	if _, ok := t.net.Node(b); ok {
		t.fill(b)
	}
}

// fill opens intra-cluster links up to the target, then long links.
func (t *LBC) fill(id p2p.NodeID) {
	node, ok := t.net.Node(id)
	if !ok {
		return
	}
	key := t.clusterOf[id]
	mates := t.members[key]

	// Intra-cluster: random same-cluster members.
	attempts := 0
	maxAttempts := 10 * t.intra
	intraTarget := t.intra
	if len(mates)-1 < intraTarget {
		intraTarget = len(mates) - 1
	}
	for t.intraCount(node) < intraTarget && attempts < maxAttempts {
		attempts++
		target := mates[t.r.Intn(len(mates))]
		if target == id {
			continue
		}
		_ = t.net.Connect(id, target)
	}

	// Long links: random nodes outside the cluster ("each node maintains
	// a few long distance links to the outside cluster", §IV).
	all := t.seed.All()
	attempts = 0
	maxAttempts = 10 * t.longLinks
	for t.longCount(node) < t.longLinks && attempts < maxAttempts {
		attempts++
		target := all[t.r.Intn(len(all))]
		if target == id || t.clusterOf[target] == key {
			continue
		}
		_ = t.net.Connect(id, target)
	}
}

// intraCount counts connections to same-cluster peers. EachPeer keeps
// the scan allocation-free: it runs once per connect attempt during
// bootstrap fill.
func (t *LBC) intraCount(node *p2p.Node) int {
	key := t.clusterOf[node.ID()]
	c := 0
	node.EachPeer(func(p p2p.NodeID) bool {
		if t.clusterOf[p] == key {
			c++
		}
		return true
	})
	return c
}

// longCount counts connections leaving the cluster.
func (t *LBC) longCount(node *p2p.Node) int {
	key := t.clusterOf[node.ID()]
	c := 0
	node.EachPeer(func(p p2p.NodeID) bool {
		if t.clusterOf[p] != key {
			c++
		}
		return true
	})
	return c
}
