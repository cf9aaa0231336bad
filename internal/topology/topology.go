// Package topology defines neighbour-selection protocols for the simulated
// Bitcoin network and implements the two baselines the paper compares
// against:
//
//   - Random: the vanilla Bitcoin behaviour — "a node connects with nodes
//     regardless of any proximity criteria" (§I);
//   - LBC: the authors' earlier Locality Based Clustering protocol [6],
//     which clusters peers by geographic location (country).
//
// The paper's contribution, BCBPT, implements the same Protocol interface
// in internal/core.
package topology

import (
	"context"
	"slices"

	"repro/internal/geo"
	"repro/internal/p2p"
)

// Protocol is a neighbour-selection policy driving who connects to whom.
// Implementations receive lifecycle events and edit the overlay through
// p2p.Network.Connect/Disconnect.
type Protocol interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// Bootstrap wires the initial population (nodes already added to the
	// network). It may schedule virtual-time work; it returns once that
	// work is scheduled (run the network to complete it). Bootstrap does
	// host-time work proportional to the population (registration,
	// wiring), so it polls ctx and returns an error wrapping ctx.Err()
	// when cancelled; work it schedules, such as BCBPT's joins and their
	// candidate ranking, runs in virtual time.
	Bootstrap(ctx context.Context, ids []p2p.NodeID) error
	// OnJoin wires a newly arrived node (already added to the network).
	OnJoin(id p2p.NodeID)
	// OnLeave tells the protocol a node is departing, before the network
	// removes it, so registries can forget the node first.
	OnLeave(id p2p.NodeID)
	// OnDisconnect reports a torn-down edge (including those caused by
	// departures); protocols refill degree here.
	OnDisconnect(a, b p2p.NodeID)
}

// DNSSeed is the node-discovery oracle. The paper gives DNS two roles:
// supplying addresses of reachable nodes, and — for BCBPT — recommending
// nodes that are geographically close to the joiner ("DNS service nodes
// should recommend available nodes to the node N based on the proximity in
// the physical geographical location", §IV.B).
//
// Of a node's location the registry keeps the one fact both roles read,
// its coordinate: ids holds every registered ID, ascending, and coords the
// coordinate of each at the same position. The geographic index Recommend
// searches is built from them the first time it is read, and from then on
// every Register/Remove patches it in place. Until that first read it stays
// nil and mutations skip it, so registering a whole population before
// anything reads costs one build whatever order the IDs arrive in.
type DNSSeed struct {
	// ids is every registered ID, ascending, and what All returns. Link
	// refill consults All on every disconnect, so under churn it is read
	// about as often as it changes.
	ids    []p2p.NodeID
	coords []geo.Coord
	// cells is the geographic index Recommend searches (see nearest.go);
	// nil = never read.
	cells *cellIndex
}

// NewDNSSeed returns an empty seed registry.
func NewDNSSeed() *DNSSeed {
	return &DNSSeed{}
}

// Reserve sizes an empty registry for an expected population, as
// p2p.Network.Reserve sizes the network, so a large build does not grow
// the registry one registration at a time. Calling it on a registry that
// holds nodes, or not at all, only costs that growth: behaviour is the
// same either way.
func (d *DNSSeed) Reserve(nodes int) {
	if nodes <= 0 || len(d.ids) > 0 {
		return
	}
	d.ids = make([]p2p.NodeID, 0, nodes)
	d.coords = make([]geo.Coord, 0, nodes)
}

// find returns id's position in ids, or where it would go, and whether it
// is registered. IDs from AddNode ascend, so an arrival is checked against
// the last ID before any search.
func (d *DNSSeed) find(id p2p.NodeID) (int, bool) {
	if n := len(d.ids); n == 0 || d.ids[n-1] < id {
		return n, false
	}
	return slices.BinarySearch(d.ids, id)
}

// Register adds a reachable node, or moves a known one to loc; only
// loc.Coord is kept. IDs from AddNode ascend, so an arrival appends; in the
// geographic index it patches the one cell loc falls in, a binary search
// and an insert among that cell's nodes, and pays the four sines and
// cosines of the entry's unit vector. Re-registering at the same
// coordinate touches nothing.
func (d *DNSSeed) Register(id p2p.NodeID, loc geo.Location) {
	at := loc.Coord
	i, known := d.find(id)
	if known {
		old := d.coords[i]
		if old == at {
			return
		}
		d.coords[i] = at
		if d.cells != nil {
			d.cells.remove(id, old)
			d.cells.insert(newEntry(id, at), at)
		}
		return
	}
	d.ids = slices.Insert(d.ids, i, id)
	d.coords = slices.Insert(d.coords, i, at)
	if d.cells != nil {
		d.cells.insert(newEntry(id, at), at)
	}
}

// Remove forgets a node: a binary search and a delete from the ID list,
// and in the geographic index, if it has been read, a refit of the box of
// the one cell the node leaves. Removing an unknown ID does nothing.
func (d *DNSSeed) Remove(id p2p.NodeID) {
	i, known := d.find(id)
	if !known {
		return
	}
	at := d.coords[i]
	d.ids = slices.Delete(d.ids, i, i+1)
	d.coords = slices.Delete(d.coords, i, i+1)
	if d.cells != nil {
		d.cells.remove(id, at)
	}
}

// coord returns the coordinate of id, which must be registered.
func (d *DNSSeed) coord(id p2p.NodeID) geo.Coord {
	i, _ := d.find(id)
	return d.coords[i]
}

// Len returns the number of registered nodes.
func (d *DNSSeed) Len() int { return len(d.ids) }

// All returns every registered node ID, sorted. The slice is the
// registry's own: callers must not mutate it, and the next Register/Remove
// edits it in place (it does not merely supersede it), so hold it only
// while nothing registers or removes. The link-refill loops that call All
// hold it across p2p.Network.Connect, which evicts nobody and fires no
// hook.
func (d *DNSSeed) All() []p2p.NodeID { return d.ids }

// buildIndex builds the geographic index if nothing has read it yet; once
// built, Register/Remove keep it current and buildIndex does nothing.
func (d *DNSSeed) buildIndex() {
	if d.cells != nil {
		return
	}
	d.cells = newCellIndex(d.ids, d.coords)
}

// Recommend returns up to k registered nodes closest to loc by great-
// circle distance (the "geographical distance calculation methodology" of
// the paper's ref [6]), nearest first, excluding the given node. Ties
// break by ID so results are deterministic. The order is that of
// geo.DistanceMeters over the whole registry, but the search evaluates it
// only to settle what chords cannot: it ranks on squared chords between
// unit vectors, prunes whole cells of the index on the bounding boxes of
// their unit vectors and whole rows of cells on the latitude gap, and asks
// for great-circle distances among candidates whose chords tie or nearly
// tie (see nearest). Registered coordinates must be Valid: a latitude gap
// bounds the chord only for latitudes within [-90, 90]. The first
// Recommend (or AppendRecommend, or RecommendCost) on a registry whose
// index nothing has read builds it; every later one only reads.
func (d *DNSSeed) Recommend(self p2p.NodeID, loc geo.Location, k int) []p2p.NodeID {
	return d.AppendRecommend(make([]p2p.NodeID, 0, max(0, min(k, d.Len()))), self, loc, k)
}

// AppendRecommend is Recommend appending to dst: a dst with room for k
// takes the ranking without an allocation.
func (d *DNSSeed) AppendRecommend(dst []p2p.NodeID, self p2p.NodeID, loc geo.Location, k int) []p2p.NodeID {
	d.buildIndex()
	ids, _, _ := d.cells.nearest(d, dst, self, loc.Coord, k)
	return ids
}

// RecommendCost returns how many great-circle distances Recommend
// evaluates for this query, and how many squared chords it computes to
// choose them — the two units its cost scales in, which benchmarks report
// next to the wall time.
func (d *DNSSeed) RecommendCost(self p2p.NodeID, loc geo.Location, k int) (dists, chords int) {
	d.buildIndex()
	_, dists, chords = d.cells.nearest(d, nil, self, loc.Coord, k)
	return
}
