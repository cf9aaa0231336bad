package topology

import (
	"slices"
	"sort"

	"repro/internal/p2p"
)

// Partitioner is implemented by protocols that can expose a natural
// partition of the node population into event domains for conservative
// parallel dispatch (p2p.Network.EnableParallelDispatch). Good partitions
// put densely connected nodes together — for the paper's protocols that is
// exactly the cluster structure, since clustering concentrates edges
// inside clusters and leaves only the long-haul links between them.
//
// Partitions must be deterministic for a given protocol state: the same
// build produces the same partition list in the same order, because the
// partition assignment feeds the parallel dispatcher whose output must be
// bit-identical across runs.
type Partitioner interface {
	// Partitions returns disjoint groups of live node IDs. Groups and the
	// IDs within each group are in a deterministic order. Nodes absent
	// from every group are allowed (callers place them in a catch-all
	// partition). An empty or single-element result means the protocol
	// has no useful partition to offer.
	Partitions() [][]p2p.NodeID
}

// Partitions implements Partitioner for LBC: one group per cluster, in
// sorted cluster-key order, members sorted by ID.
func (t *LBC) Partitions() [][]p2p.NodeID {
	keys := make([]string, 0, len(t.members))
	for k := range t.members {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]p2p.NodeID, 0, len(keys))
	for _, k := range keys {
		ids := append([]p2p.NodeID(nil), t.members[k]...)
		slices.Sort(ids)
		out = append(out, ids)
	}
	return out
}

// Partitions implements Partitioner for the Random baseline. Random wiring
// has no cluster structure, so the fallback domain decomposition is
// geographic: one group per region, in sorted region order. Latency floors
// between regions are what bounds the dispatcher's lookahead, so grouping
// by region keeps the cross-partition floor as large as the topology
// allows even though edges cross regions freely.
func (t *Random) Partitions() [][]p2p.NodeID {
	byRegion := make(map[string][]p2p.NodeID)
	for _, id := range t.seed.All() {
		loc, ok := t.seed.Location(id)
		if !ok {
			continue
		}
		byRegion[loc.Region] = append(byRegion[loc.Region], id)
	}
	regions := make([]string, 0, len(byRegion))
	for r := range byRegion {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	out := make([][]p2p.NodeID, 0, len(regions))
	for _, r := range regions {
		out = append(out, byRegion[r]) // seed.All() is sorted, so members are too
	}
	return out
}
