package topology

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

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

// boxChord2 is the squared distance from a to the axis-aligned box
// [lo, hi], summed as chord2 sums. Rounding is monotone, so for every b in
// the box chord2(a, b) is no smaller, up to the fused multiply-adds some
// architectures make of the sum, which guard's slack covers.
func (a unitVec) boxChord2(lo, hi unitVec) float64 {
	dx, dy, dz := outside(a.x, lo.x, hi.x), outside(a.y, lo.y, hi.y), outside(a.z, lo.z, hi.z)
	return dx*dx + dy*dy + dz*dz
}

// outside is how far v lies outside [lo, hi], 0 within it.
func outside(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	}
	return 0
}

// entry is one registered node in DNSSeed's geographic index. It carries
// the node's unit vector, a pure function of coord computed once when the
// entry is made.
type entry struct {
	unit  unitVec
	coord geo.Coord
	id    p2p.NodeID
}

func newEntry(id p2p.NodeID, c geo.Coord) entry {
	return entry{unit: unitOf(c), coord: c, id: id}
}

// cellDeg is the side of an index cell, in degrees of latitude and of
// longitude. It is a power of two, so placing a coordinate in its cell
// divides exactly; at 2° a city of the placer's world and its 50 km of
// jitter fill one cell or two.
const cellDeg = 2

const (
	numRows = 180 / cellDeg
	numCols = 360 / cellDeg
)

// rowSlack is subtracted from a latitude gap before it bounds a row. An
// entry's row is floor((lat+90)/cellDeg) computed in float64, and lat+90
// rounds by up to 1.4e-14°, so an entry can lie that far outside its row's
// edges.
const rowSlack = 1e-12

// cellOf returns the row and column of the cell c falls in: latitude
// 90 joins the top row and longitude 180 the last column. Coordinates are
// Valid, so the clamps only bound the indices.
func cellOf(c geo.Coord) (row, col int) {
	row = min(max(int((c.LatDeg+90)/cellDeg), 0), numRows-1)
	col = min(max(int((c.LonDeg+180)/cellDeg), 0), numCols-1)
	return row, col
}

// rowBottom is the southern edge of row r in degrees of latitude.
func rowBottom(r int) float64 { return float64(r)*cellDeg - 90 }

// cell is one occupied cell of the index: its entries, in ascending id,
// and the axis-aligned box of their unit vectors, which bounds from below
// the squared chord from any point to any of them.
type cell struct {
	col    int
	lo, hi unitVec
	ents   []entry
}

// fitBox sets the box to the entries' unit vectors exactly.
func (c *cell) fitBox() {
	c.lo, c.hi = c.ents[0].unit, c.ents[0].unit
	for _, e := range c.ents[1:] {
		c.widen(e.unit)
	}
}

// widen grows the box to take in u.
func (c *cell) widen(u unitVec) {
	c.lo = unitVec{min(c.lo.x, u.x), min(c.lo.y, u.y), min(c.lo.z, u.z)}
	c.hi = unitVec{max(c.hi.x, u.x), max(c.hi.y, u.y), max(c.hi.z, u.z)}
}

// cellIndex is DNSSeed's geographic index: the registry cut into cellDeg ×
// cellDeg latitude/longitude cells, each row holding its occupied cells in
// ascending column. Register and Remove patch the one cell a node is in,
// and a query reads it without writing anything.
type cellIndex struct {
	rows [numRows][]cell
	n    int
}

// newCellIndex builds the index over the registered nodes ids, ascending,
// at coords: one slice of entries made in ID order and stable-sorted by
// cell, so each cell is a run of it in ascending ID, its capacity capped at
// its length so that a later insert reallocates that cell alone.
func newCellIndex(ids []p2p.NodeID, coords []geo.Coord) *cellIndex {
	ents := make([]entry, len(ids))
	for i, id := range ids {
		ents[i] = newEntry(id, coords[i])
	}
	slices.SortStableFunc(ents, func(a, b entry) int { return cmp.Compare(cellKey(a.coord), cellKey(b.coord)) })
	ix := &cellIndex{n: len(ents)}
	for i := 0; i < len(ents); {
		k := cellKey(ents[i].coord)
		j := i + 1
		for j < len(ents) && cellKey(ents[j].coord) == k {
			j++
		}
		c := cell{col: k % numCols, ents: ents[i:j:j]}
		c.fitBox()
		ix.rows[k/numCols] = append(ix.rows[k/numCols], c)
		i = j
	}
	return ix
}

// cellKey numbers the cell c falls in, row-major: the order of the rows,
// and within a row of the columns.
func cellKey(c geo.Coord) int {
	r, col := cellOf(c)
	return r*numCols + col
}

// find returns the position of column col in row r, and whether that cell
// is occupied.
func (ix *cellIndex) find(r, col int) (int, bool) {
	return slices.BinarySearchFunc(ix.rows[r], col, func(c cell, col int) int { return cmp.Compare(c.col, col) })
}

// byID orders a cell's entries.
func byID(e entry, id p2p.NodeID) int { return cmp.Compare(e.id, id) }

// insert adds e to its cell, making the cell if it is new, and widens the
// cell's box.
func (ix *cellIndex) insert(e entry) {
	r, col := cellOf(e.coord)
	ix.n++
	i, ok := ix.find(r, col)
	if !ok {
		c := cell{col: col, lo: e.unit, hi: e.unit, ents: append([]entry(nil), e)}
		ix.rows[r] = slices.Insert(ix.rows[r], i, c)
		return
	}
	c := &ix.rows[r][i]
	j, _ := slices.BinarySearchFunc(c.ents, e.id, byID)
	c.ents = slices.Insert(c.ents, j, e)
	c.widen(e.unit)
}

// remove deletes id, registered at at, from its cell and fits the cell's
// box to the entries left, or drops the cell if none are.
func (ix *cellIndex) remove(id p2p.NodeID, at geo.Coord) {
	r, col := cellOf(at)
	i, ok := ix.find(r, col)
	if !ok {
		return
	}
	c := &ix.rows[r][i]
	j, ok := slices.BinarySearchFunc(c.ents, id, byID)
	if !ok {
		return
	}
	ix.n--
	c.ents = slices.Delete(c.ents, j, j+1)
	if len(c.ents) == 0 {
		ix.rows[r] = slices.Delete(ix.rows[r], i, i+1)
		return
	}
	c.fitBox()
}

// cand is a candidate of a query: an index entry, its squared chord from
// the query and, once something has made it necessary, its great-circle
// distance.
type cand struct {
	c2, d float64
	e     *entry
}

// byDistance is the order a query answers in: (great-circle distance, id).
func byDistance(a, b *cand) int {
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

// stackK is the largest k whose scratch a query keeps on its stack; a
// build asks for 64.
const stackK = 64

// search is one query in progress.
type search struct {
	qu   unitVec
	self p2p.NodeID
	k    int
	// heap holds the bits of the k smallest squared chords seen, which
	// order as the chords do; heap[0] is the largest of them.
	heap []uint64
	// band is guard of the chord heap[0] once the heap holds k chords,
	// +Inf before: every entry beyond it is beaten by k others.
	band float64
	// keep is every entry seen whose chord was within band when seen.
	keep   []cand
	chords int
}

// scanCell computes the squared chord of every entry of a cell once,
// keeps the k smallest in the heap, which it orders only once it is full,
// and keeps the entries within the band, first dropping from a full keep
// those the band has since passed by. A search is passed and returned by
// value, so its stack buffers stay on the stack.
func (s search) scanCell(ents []entry) search {
	for i := range ents {
		e := &ents[i]
		if e.id == s.self {
			continue
		}
		c2 := s.qu.chord2(e.unit)
		s.chords++
		switch bits := math.Float64bits(c2); {
		case len(s.heap) < s.k:
			s.heap = append(s.heap, bits)
			if len(s.heap) == s.k {
				heapify(s.heap)
				s.band = guard(math.Float64frombits(s.heap[0]))
			}
		case bits < s.heap[0]:
			siftDown(s.heap, 0, bits)
			s.band = guard(math.Float64frombits(s.heap[0]))
		case c2 > s.band:
			continue
		}
		if len(s.keep) == cap(s.keep) {
			band := s.band
			s.keep = slices.DeleteFunc(s.keep, func(c cand) bool { return c.c2 > band })
		}
		s.keep = append(s.keep, cand{c2: c2, e: e})
	}
	return s
}

// pending is a cell of a row the search has reached, with the squared
// chord its box bounds its entries' from below.
type pending struct {
	bound float64
	c     *cell
}

// nearest appends to dst the up-to-k entries of ix closest to q under the
// (great-circle distance, id) order, nearest first, skipping self, and
// returns how many great-circle distances and how many squared chords it
// evaluated. It is exact, and ranks on squared chords (see unitOf):
//
//  1. It reaches rows in order of their latitude gap from q, bounding each
//     row's chords by latChord2, and the cells of the rows it has reached
//     in order of their box bounds (boxChord2), always taking whichever of
//     the next row and the nearest cell has the smaller bound. It computes
//     the squared chord of every entry of a cell it takes once, keeping
//     the k smallest in a max-heap whose worst is T and every entry within
//     the band guard(T) as T stood when it was seen.
//  2. It stops when the nearest cell's bound exceeds guard(guard(T)) — the
//     second guard absorbs the rounding of the bound — or the next row's
//     exceeds guard(T), and leaves out the cells of a row that are beyond
//     guard(guard(T)) when it reaches the row.
//  3. It keeps the entries within the final guard(T) — k of them, plus
//     whatever ties or nearly ties with the k-th — and sorts them by chord.
//     Where guard tells two neighbours of that order apart, it is the
//     distance order already. A run of neighbours it does not tell apart —
//     exact duplicates, separations of centimetres, near-ties a thousand
//     kilometres out — is put in (distance, id) order by evaluating
//     geo.DistanceMeters for the run. On a population without coincidences
//     that is no evaluation at all.
//
// Every entry left out, reached or not, has a squared chord beyond the
// guard band of k others', so by guard's argument k entries are strictly
// nearer by geo.DistanceMeters; and by the same argument every entry of one
// run comes before every entry of the next. So the first k are the first k
// of a sort of the whole registry by (geo.DistanceMeters, id), ties
// included. On the placer's world a query computes about twice k chords.
func (ix *cellIndex) nearest(dst []p2p.NodeID, self p2p.NodeID, q geo.Coord, k int) (ids []p2p.NodeID, dists, chords int) {
	k = min(k, ix.n)
	if k <= 0 {
		return dst, 0, 0
	}
	var heapBuf [stackK]uint64
	var keepBuf [4 * stackK]cand
	var cellBuf [4 * stackK]pending
	s := search{qu: unitOf(q), self: self, k: k, heap: heapBuf[:0], band: math.Inf(1), keep: keepBuf[:0]}
	if k > stackK {
		s.heap = make([]uint64, 0, k)
		s.keep = make([]cand, 0, 4*k)
	}
	cells := cellBuf[:0]
	r0, _ := cellOf(q)
	for lo, hi := r0-1, r0; ; {
		// The nearer unreached row: rows lo and below lie south of q,
		// rows hi and above north of it, and q's own row counts as north
		// with a gap of at most 0.
		row, rowBound := -1, math.Inf(1)
		if lo >= 0 || hi < numRows {
			below, above := math.Inf(1), math.Inf(1)
			if lo >= 0 {
				below = q.LatDeg - rowBottom(lo+1)
			}
			if hi < numRows {
				above = rowBottom(hi) - q.LatDeg
			}
			row = hi
			if below < above {
				row = lo
			}
			rowBound = latChord2(max(0, min(below, above)-rowSlack))
		}
		near := -1
		for i := range cells {
			if near < 0 || cells[i].bound < cells[near].bound {
				near = i
			}
		}
		if near >= 0 && cells[near].bound <= rowBound {
			p := cells[near]
			if p.bound > guard(s.band) {
				break
			}
			cells[near] = cells[len(cells)-1]
			cells = cells[:len(cells)-1]
			s = s.scanCell(p.c.ents)
			continue
		}
		if row < 0 || rowBound > s.band {
			break
		}
		if row == lo {
			lo--
		} else {
			hi++
		}
		for i := range ix.rows[row] {
			c := &ix.rows[row][i]
			if b := s.qu.boxChord2(c.lo, c.hi); b <= guard(s.band) {
				cells = append(cells, pending{bound: b, c: c})
			}
		}
	}
	// Fewer than k chords computed means every entry was taken, and the
	// band is still infinite.
	keep := s.keep
	var keysBuf [4 * stackK]uint64
	keys := sortByChord(keysBuf[:0], keep, s.band)
	// A run that starts beyond the k-th place changes nothing returned.
	mask := uint64(1)<<bits.Len(uint(len(keep))) - 1
	at := func(i int) *cand { return &keep[keys[i]&mask] }
	for i := 0; i < min(k, len(keys)); {
		j := i + 1
		for j < len(keys) && at(j).c2 <= guard(at(j-1).c2) {
			j++
		}
		if j-i > 1 {
			for r := i; r < j; r++ {
				at(r).d = geo.DistanceMeters(q, at(r).e.coord)
			}
			dists += j - i
			slices.SortFunc(keys[i:j], func(a, b uint64) int { return byDistance(&keep[a&mask], &keep[b&mask]) })
		}
		i = j
	}
	for i := range min(k, len(keys)) {
		dst = append(dst, at(i).e.id)
	}
	return dst, dists, s.chords
}

// sortByChord appends to keys, and returns, a key for each candidate of
// keep within band, in ascending chord order. A key is the chord's bits
// with the low bits replaced by the candidate's position in keep: a
// non-negative float's bits order as the float does, so keys compare as
// integers into chord order, up to chords equal in all but those low bits.
// A few dozen keys are sorted by insertion, which beats the pivoting of a
// general sort at that size; a last insertion pass puts the chords that
// differ only in their low bits in exact order.
func sortByChord(keys []uint64, keep []cand, band float64) []uint64 {
	mask := uint64(1)<<bits.Len(uint(len(keep))) - 1
	for i, c := range keep {
		if c.c2 <= band {
			keys = append(keys, math.Float64bits(c.c2)&^mask|uint64(i))
		}
	}
	if len(keys) > 4*stackK {
		slices.Sort(keys)
	}
	for i := 1; i < len(keys); i++ {
		x := keys[i]
		j := i
		for ; j > 0 && keys[j-1] > x; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = x
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keep[keys[j]&mask].c2 < keep[keys[j-1]&mask].c2; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// heapify orders h as a max-heap.
func heapify(h []uint64) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, h[i])
	}
}

// siftDown puts x at i in h, whose subtrees below i are max-heaps, moving
// it down past every larger child.
func siftDown(h []uint64, i int, x uint64) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) {
			// A conditional move, not a branch: which child is larger is a
			// coin toss the predictor loses half the time.
			a, b := h[c], h[c+1]
			d := 0
			if b > a {
				d = 1
			}
			c += d
		}
		if h[c] <= x {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
