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
// The registry keeps two orderings of its nodes, all and the geographic
// index, under one rule: an ordering is built the first time it is read,
// and from then on every Register/Remove patches it in place. Until that
// first read it stays nil and mutations skip it, so registering a whole
// population before anything reads costs one build whatever order the IDs
// arrive in.
type DNSSeed struct {
	locs map[p2p.NodeID]geo.Location
	// all is every registered ID, ascending; nil = never read. Link refill
	// consults All on every disconnect, so under churn it is read about as
	// often as it changes.
	all []p2p.NodeID
	// cells is the geographic index Recommend searches (see nearest.go);
	// nil = never read.
	cells *cellIndex
}

// NewDNSSeed returns an empty seed registry.
func NewDNSSeed() *DNSSeed {
	return &DNSSeed{locs: make(map[p2p.NodeID]geo.Location)}
}

// Register adds a reachable node, or moves a known one to loc. IDs from
// AddNode ascend, so an arrival appends to all; in the geographic index it
// patches the one cell loc falls in, a binary search and an insert among
// that cell's nodes, and pays the four sines and cosines of the entry's
// unit vector. Re-registering at the same coordinate touches neither.
func (d *DNSSeed) Register(id p2p.NodeID, loc geo.Location) {
	old, known := d.locs[id]
	d.locs[id] = loc
	if !known && d.all != nil {
		i, _ := slices.BinarySearch(d.all, id)
		d.all = slices.Insert(d.all, i, id)
	}
	if d.cells == nil || (known && old.Coord == loc.Coord) {
		return
	}
	if known {
		d.cells.remove(id, old.Coord)
	}
	d.cells.insert(newEntry(id, loc.Coord))
}

// Remove forgets a node: a binary search and a delete in each ordering that
// has been read, and in the geographic index a refit of the box of the one
// cell the node leaves. Removing an unknown ID does nothing.
func (d *DNSSeed) Remove(id p2p.NodeID) {
	loc, known := d.locs[id]
	if !known {
		return
	}
	delete(d.locs, id)
	if d.all != nil {
		if i, ok := slices.BinarySearch(d.all, id); ok {
			d.all = slices.Delete(d.all, i, i+1)
		}
	}
	if d.cells != nil {
		d.cells.remove(id, loc.Coord)
	}
}

// Len returns the number of registered nodes.
func (d *DNSSeed) Len() int { return len(d.locs) }

// All returns every registered node ID, sorted. The slice is the
// registry's own: callers must not mutate it, and the next Register/Remove
// edits it in place (it does not merely supersede it), so hold it only
// while nothing registers or removes. The link-refill loops that call All
// hold it across p2p.Network.Connect, which evicts nobody and fires no
// hook.
func (d *DNSSeed) All() []p2p.NodeID {
	if d.all == nil {
		ids := make([]p2p.NodeID, 0, len(d.locs))
		for id := range d.locs {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		d.all = ids
	}
	return d.all
}

// buildIndex builds the geographic index if nothing has read it yet; once
// built, Register/Remove keep it current and buildIndex does nothing.
func (d *DNSSeed) buildIndex() {
	if d.cells != nil {
		return
	}
	d.cells = newCellIndex(d.locs)
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
	ids, _, _ := d.cells.nearest(dst, self, loc.Coord, k)
	return ids
}

// RecommendCost returns how many great-circle distances Recommend
// evaluates for this query, and how many squared chords it computes to
// choose them — the two units its cost scales in, which benchmarks report
// next to the wall time.
func (d *DNSSeed) RecommendCost(self p2p.NodeID, loc geo.Location, k int) (dists, chords int) {
	d.buildIndex()
	_, dists, chords = d.cells.nearest(nil, self, loc.Coord, k)
	return
}

// Location returns the registered location of a node.
func (d *DNSSeed) Location(id p2p.NodeID) (geo.Location, bool) {
	loc, ok := d.locs[id]
	return loc, ok
}
