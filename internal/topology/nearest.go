package topology

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/geo"
	"repro/internal/p2p"
)

// latEntry is one registered node in DNSSeed's geographic index, which is
// kept sorted by (latitude, id).
type latEntry struct {
	coord geo.Coord
	id    p2p.NodeID
}

// compare is the index order: latitude, then id. Longitude takes no part,
// so an entry is found by its node's registered coordinate and id alone.
func (a latEntry) compare(b latEntry) int {
	if c := cmp.Compare(a.coord.LatDeg, b.coord.LatDeg); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// ranked is a candidate with its distance from the query. Candidates are
// totally ordered by (distance, id).
type ranked struct {
	d  float64
	id p2p.NodeID
}

func (a ranked) compare(b ranked) int {
	if c := cmp.Compare(a.d, b.d); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// latBound returns a distance that geo.DistanceMeters never falls below for
// two valid coordinates dLat degrees of latitude apart. The relative slack
// covers haversine's rounding, which is worst (about 1e-8) between
// near-antipodal latitudes where asin is ill-conditioned; the absolute one
// covers separations so small that sin² underflows and DistanceMeters
// returns 0.
func latBound(dLat float64) float64 {
	return dLat*geo.MetersPerDegreeLat*(1-1e-6) - 1e-100
}

// nearest returns the up-to-k entries of ix closest to q under the
// (distance, id) order, nearest first, skipping self, and how many
// distances it evaluated. It is exact: it walks outward from q's latitude
// in both directions, keeps the k best seen in a max-heap, and stops once
// the latitude gap alone puts every remaining entry beyond the heap's
// worst. On clustered populations that is a small multiple of k
// evaluations, not len(ix).
func nearest(ix []latEntry, self p2p.NodeID, q geo.Coord, k int) (ids []p2p.NodeID, evals int) {
	k = min(k, len(ix))
	if k <= 0 {
		return []p2p.NodeID{}, 0
	}
	heap := make([]ranked, 0, k) // heap[0] is the worst kept candidate
	hi := sort.Search(len(ix), func(i int) bool { return ix[i].coord.LatDeg >= q.LatDeg })
	lo := hi - 1
	for lo >= 0 || hi < len(ix) {
		// Step to whichever side is nearer in latitude, so the gap to the
		// entry taken bounds the gap to every entry not yet taken.
		var e latEntry
		var dLat float64
		if lo < 0 || (hi < len(ix) && ix[hi].coord.LatDeg-q.LatDeg <= q.LatDeg-ix[lo].coord.LatDeg) {
			e, dLat = ix[hi], ix[hi].coord.LatDeg-q.LatDeg
			hi++
		} else {
			e, dLat = ix[lo], q.LatDeg-ix[lo].coord.LatDeg
			lo--
		}
		if len(heap) == k && latBound(dLat) > heap[0].d {
			break
		}
		if e.id == self {
			continue
		}
		c := ranked{d: geo.DistanceMeters(q, e.coord), id: e.id}
		evals++
		if len(heap) < k {
			heap = append(heap, c)
			siftUp(heap, len(heap)-1)
		} else if c.compare(heap[0]) < 0 {
			heap[0] = c
			siftDown(heap, 0)
		}
	}
	slices.SortFunc(heap, ranked.compare)
	ids = make([]p2p.NodeID, len(heap))
	for i, c := range heap {
		ids[i] = c.id
	}
	return ids, evals
}

func siftUp(h []ranked, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[i].compare(h[parent]) <= 0 {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []ranked, i int) {
	for {
		big := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c].compare(h[big]) > 0 {
				big = c
			}
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
