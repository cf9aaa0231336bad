package topology

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/geo"
	"repro/internal/p2p"
)

// unitVec is a point of the unit sphere.
type unitVec struct{ x, y, z float64 }

// unitOf places c on the unit sphere. The squared distance between two such
// points — the squared chord — is 4·sin²(θ/2) for a great-circle angle θ:
// the haversine's h times four, so it orders candidates as the great-circle
// distance does, for three subtractions and three multiplications a pair.
func unitOf(c geo.Coord) unitVec {
	sinLat, cosLat := math.Sincos(c.LatDeg * math.Pi / 180)
	sinLon, cosLon := math.Sincos(c.LonDeg * math.Pi / 180)
	return unitVec{x: cosLat * cosLon, y: cosLat * sinLon, z: sinLat}
}

// chord2 is the squared chord between two unit vectors.
func (a unitVec) chord2(b unitVec) float64 {
	dx, dy, dz := a.x-b.x, a.y-b.y, a.z-b.z
	return dx*dx + dy*dy + dz*dz
}

// latEntry is one registered node in DNSSeed's geographic index, which is
// kept sorted by (latitude, id). It carries the node's unit vector, a pure
// function of coord computed once when the entry is made.
type latEntry struct {
	coord geo.Coord
	id    p2p.NodeID
	unit  unitVec
}

func newLatEntry(id p2p.NodeID, c geo.Coord) latEntry {
	return latEntry{coord: c, id: id, unit: unitOf(c)}
}

// compare is the index order: latitude, then id. Longitude takes no part,
// so an entry is found by its node's registered coordinate and id alone.
func (a latEntry) compare(b latEntry) int {
	if c := cmp.Compare(a.coord.LatDeg, b.coord.LatDeg); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// cand is a candidate of a query: an index entry, its squared chord from
// the query and, once something has made it necessary, its great-circle
// distance.
type cand struct {
	c2, d float64
	e     *latEntry
}

// byChord orders candidates by squared chord alone. No chord is NaN.
func byChord(a, b cand) int {
	switch {
	case a.c2 < b.c2:
		return -1
	case a.c2 > b.c2:
		return 1
	}
	return 0
}

// byDistance is the order a query answers in: (great-circle distance, id).
func byDistance(a, b cand) int {
	switch { // no distance is NaN
	case a.d < b.d:
		return -1
	case a.d > b.d:
		return 1
	}
	return cmp.Compare(a.e.id, b.e.id)
}

// guard widens a squared chord into the band within which the search does
// not trust chords to order candidates. Whenever guard(c2a) < c2b for two
// candidates' computed squared chords, geo.DistanceMeters puts a strictly
// nearer than b:
//
//   - The relative term is the separation the two roundings leave standing.
//     A 1e-6 gap in squared chord is a gap of at least 3e-7 in great-circle
//     distance, and haversine's own error is about 1e-15 of the distance
//     except between near-antipodal points, where asin is ill-conditioned
//     and it reaches about 1e-8. On the chord side a unit vector is off by
//     about 1e-15, so a squared chord by about 4e-15 of the chord: below
//     1e-6 of it for every chord above 4e-9 (centimetres).
//   - The absolute term covers the chords below that, where the difference
//     of two unit vectors has cancelled to nothing while haversine, which
//     subtracts the coordinates in degrees first, still resolves the pair
//     (and separations below its resolution, which it reports as 0). The
//     two terms overlap: a wrong order would need 1e-6·c² + 1e-18 < 4·E·c
//     for a chord c and a vector error E, and that has no solution for any
//     E below 5e-13.
//
// TestRecommendGuardBand and its random sibling hold the claim against the
// full sort; they start failing with the relative term near 1e-14 or the
// absolute one near 1e-24.
func guard(c2 float64) float64 { return c2*(1+1e-6) + 1e-18 }

// latChord2 returns a squared chord that no two valid coordinates dLat
// degrees of latitude apart fall below, without trigonometry: their
// great-circle angle is at least the latitude gap, so their chord at least
// 2·sin(x) with x half the gap in radians, and x - x³/6 never exceeds
// sin x. The clamp keeps the cubic on its rising side (it turns at √2;
// x reaches π/2), so the bound grows with the gap; the relative slack
// covers its own rounding.
func latChord2(dLat float64) float64 {
	x := dLat * (math.Pi / 360)
	if x > 1.4 {
		x = 1.4
	}
	s := x - x*x*x/6
	return 4 * s * s * (1 - 1e-6)
}

// stackK is the largest k whose scratch nearest keeps on its stack; a
// build asks for 64.
const stackK = 64

// nearest returns the up-to-k entries of ix closest to q under the
// (great-circle distance, id) order, nearest first, skipping self, with how
// many great-circle distances and how many squared chords it evaluated. It
// is exact, and ranks on squared chords (see unitOf):
//
//  1. It walks outward from q's latitude in both directions, keeping the k
//     smallest squared chords seen in a max-heap, and stops once the
//     latitude gap alone (latChord2) puts every remaining entry beyond the
//     guard band of the heap's worst, T.
//  2. It walks the same range again, keeps the entries within guard(T) — k
//     of them, plus whatever ties or nearly ties with the k-th — and sorts
//     them by chord.
//  3. Where guard tells two neighbours of that order apart, it is the
//     distance order already. A run of neighbours it does not tell apart —
//     exact duplicates, separations of centimetres, near-ties a thousand
//     kilometres out — is put in (distance, id) order by evaluating
//     geo.DistanceMeters for the run. On a population without coincidences
//     that is no evaluation at all.
//
// Every entry left out, walked or not, has a squared chord beyond the guard
// band of k others', so by guard's argument k entries are strictly nearer by
// geo.DistanceMeters; and by the same argument every entry of one run comes
// before every entry of the next. So the first k are the first k of a sort
// of the whole registry by (geo.DistanceMeters, id), ties included. On
// clustered populations the walk covers a small multiple of k entries, not
// len(ix).
func nearest(ix []latEntry, self p2p.NodeID, q geo.Coord, k int) (ids []p2p.NodeID, dists, chords int) {
	k = min(k, len(ix))
	if k <= 0 {
		return []p2p.NodeID{}, 0, 0
	}
	qu := unitOf(q)
	var heapBuf [stackK]float64
	heap := heapBuf[:0] // heap[0] is the largest kept squared chord
	if k > stackK {
		heap = make([]float64, 0, k)
	}
	hi := sort.Search(len(ix), func(i int) bool { return ix[i].coord.LatDeg >= q.LatDeg })
	lo := hi - 1
walk:
	for lo >= 0 || hi < len(ix) {
		// Step to whichever side is nearer in latitude, so the gap to the
		// entry taken bounds the gap to every entry not yet taken.
		var e *latEntry
		if lo < 0 || (hi < len(ix) && ix[hi].coord.LatDeg-q.LatDeg <= q.LatDeg-ix[lo].coord.LatDeg) {
			e = &ix[hi]
			hi++
		} else {
			e = &ix[lo]
			lo--
		}
		if e.id == self {
			continue
		}
		c2 := qu.chord2(e.unit)
		chords++
		switch {
		case len(heap) < k:
			heap = append(heap, c2)
			siftUp(heap, len(heap)-1)
		case c2 < heap[0]:
			heap[0] = c2
			siftDown(heap, 0)
		case latChord2(math.Abs(e.coord.LatDeg-q.LatDeg)) > guard(heap[0]):
			// Only an entry the heap turned away can end the walk: one it
			// took has a chord, so a latitude bound, within the band.
			break walk
		}
	}
	// Fewer than k candidates walked means the walk took them all.
	band := math.Inf(1)
	if len(heap) == k {
		band = guard(heap[0])
	}
	var keepBuf [stackK + 8]cand
	keep := keepBuf[:0]
	for i := lo + 1; i < hi; i++ {
		e := &ix[i]
		if e.id == self {
			continue
		}
		chords++
		if c2 := qu.chord2(e.unit); c2 <= band {
			keep = append(keep, cand{c2: c2, e: e})
		}
	}
	slices.SortFunc(keep, byChord)
	// A run that starts beyond the k-th place changes nothing returned.
	for i := 0; i < min(k, len(keep)); {
		j := i + 1
		for j < len(keep) && keep[j].c2 <= guard(keep[j-1].c2) {
			j++
		}
		if j-i > 1 {
			for r := i; r < j; r++ {
				keep[r].d = geo.DistanceMeters(q, keep[r].e.coord)
			}
			dists += j - i
			slices.SortFunc(keep[i:j], byDistance)
		}
		i = j
	}
	keep = keep[:min(k, len(keep))]
	ids = make([]p2p.NodeID, len(keep))
	for i, c := range keep {
		ids[i] = c.e.id
	}
	return ids, dists, chords
}

func siftUp(h []float64, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[i] <= h[parent] {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []float64, i int) {
	for {
		big := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c] > h[big] {
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
