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
	"cmp"
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
	// host-time work proportional to the population (wiring, candidate
	// ranking), so it polls ctx and returns an error wrapping ctx.Err()
	// when cancelled mid-way.
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
type DNSSeed struct {
	locs map[p2p.NodeID]geo.Location
	// all caches the sorted ID listing between membership changes: link
	// refill consults All on every disconnect, and rebuilding the sort
	// per call dominated large-build profiles.
	all []p2p.NodeID
	// byLat is the geographic index Recommend searches (see nearest.go):
	// every registered node ordered by (latitude, id). Nil means stale;
	// mutations only ever drop it, BuildIndex rebuilds it.
	byLat []latEntry
}

// NewDNSSeed returns an empty seed registry.
func NewDNSSeed() *DNSSeed {
	return &DNSSeed{locs: make(map[p2p.NodeID]geo.Location)}
}

// Register adds (or updates) a reachable node.
func (d *DNSSeed) Register(id p2p.NodeID, loc geo.Location) {
	old, known := d.locs[id]
	if !known {
		d.all = nil
	}
	if !known || old.Coord != loc.Coord {
		d.byLat = nil
	}
	d.locs[id] = loc
}

// Remove forgets a node.
func (d *DNSSeed) Remove(id p2p.NodeID) {
	if _, known := d.locs[id]; known {
		d.all = nil
		d.byLat = nil
	}
	delete(d.locs, id)
}

// Len returns the number of registered nodes.
func (d *DNSSeed) Len() int { return len(d.locs) }

// All returns every registered node ID, sorted. The slice is shared until
// the next Register/Remove; callers must not mutate it.
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

// BuildIndex brings the geographic index up to date with the registry.
// Recommend does so itself, which makes it a writer after any
// Register/Remove: call BuildIndex first when several goroutines are about
// to call Recommend on an unchanging registry, and they only read.
func (d *DNSSeed) BuildIndex() {
	if d.byLat != nil {
		return
	}
	ix := make([]latEntry, 0, len(d.locs))
	for id, loc := range d.locs {
		ix = append(ix, latEntry{coord: loc.Coord, id: id})
	}
	slices.SortFunc(ix, func(a, b latEntry) int {
		if c := cmp.Compare(a.coord.LatDeg, b.coord.LatDeg); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	d.byLat = ix
}

// Recommend returns up to k registered nodes closest to loc by great-
// circle distance (the "geographical distance calculation methodology" of
// the paper's ref [6]), nearest first, excluding the given node. Ties
// break by ID so results are deterministic. Registered coordinates must be
// Valid: the search prunes on latitude, which bounds distance only for
// latitudes within [-90, 90].
func (d *DNSSeed) Recommend(self p2p.NodeID, loc geo.Location, k int) []p2p.NodeID {
	d.BuildIndex()
	ids, _ := nearest(d.byLat, self, loc.Coord, k)
	return ids
}

// RecommendCost returns how many great-circle distances Recommend
// evaluates for this query — the unit its cost scales in, which benchmarks
// report next to the wall time.
func (d *DNSSeed) RecommendCost(self p2p.NodeID, loc geo.Location, k int) int {
	d.BuildIndex()
	_, evals := nearest(d.byLat, self, loc.Coord, k)
	return evals
}

// Location returns the registered location of a node.
func (d *DNSSeed) Location(id p2p.NodeID) (geo.Location, bool) {
	loc, ok := d.locs[id]
	return loc, ok
}
