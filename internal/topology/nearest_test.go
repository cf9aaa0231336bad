package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/p2p"
)

// referenceRecommend is the routine Recommend replaced, kept as the oracle:
// the distance to every registered node, one full sort by (distance, id),
// the first k.
func referenceRecommend(d *DNSSeed, self p2p.NodeID, loc geo.Location, k int) []p2p.NodeID {
	type cand struct {
		id p2p.NodeID
		d  float64
	}
	cands := make([]cand, 0, len(d.ids))
	for i, id := range d.ids {
		if id == self {
			continue
		}
		cands = append(cands, cand{id: id, d: geo.DistanceMeters(loc.Coord, d.coords[i])})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].id < cands[j].id
	})
	k = max(0, min(k, len(cands)))
	out := make([]p2p.NodeID, k)
	for i := range out {
		out[i] = cands[i].id
	}
	return out
}

// checkRecommend compares Recommend with the oracle for one query.
func checkRecommend(t *testing.T, d *DNSSeed, self p2p.NodeID, c geo.Coord, k int) {
	t.Helper()
	loc := geo.Location{Coord: c}
	got, want := d.Recommend(self, loc, k), referenceRecommend(d, self, loc, k)
	if got == nil || !slices.Equal(got, want) {
		t.Fatalf("Recommend(self=%d, %v, k=%d) over %d nodes\n got %v\nwant %v", self, c, k, d.Len(), got, want)
	}
}

// rebuiltIndex is what the registry did after every mutation before it
// patched its index in place, kept as the oracle: the index from scratch,
// straight from the ID and coordinate lists.
func rebuiltIndex(d *DNSSeed) *cellIndex {
	return newCellIndex(d.ids, d.coords)
}

// coordOf returns the coordinate the registry holds for id.
func coordOf(d *DNSSeed, id p2p.NodeID) (geo.Coord, bool) {
	i, ok := slices.BinarySearch(d.ids, id)
	if !ok {
		return geo.Coord{}, false
	}
	return d.coords[i], true
}

// sameCells reports whether two indexes hold the same cells, row for row:
// the same columns, boxes and entries, coordinates included.
func sameCells(a, b *cellIndex) bool {
	if a.n != b.n {
		return false
	}
	for r := range a.rows {
		if !slices.EqualFunc(a.rows[r], b.rows[r], func(x, y cell) bool {
			return x.col == y.col && x.lo == y.lo && x.hi == y.hi && slices.Equal(x.ents, y.ents)
		}) {
			return false
		}
	}
	return true
}

// checkOrderings looks inside the registry without reading through it (a
// read would build what it is about to inspect): the ID list, the registry
// itself, must ascend strictly with a coordinate beside every ID; an index
// nothing has read must still be nil, and one that has been read must
// equal the from-scratch rebuild entry for entry, coordinates and cell
// boxes included.
func checkOrderings(t *testing.T, d *DNSSeed, read bool) {
	t.Helper()
	if len(d.coords) != len(d.ids) || !slices.IsSorted(d.ids) || len(slices.Compact(slices.Clone(d.ids))) != len(d.ids) {
		t.Fatalf("registry of %d IDs and %d coordinates is not one ascending list: %v", len(d.ids), len(d.coords), d.ids)
	}
	if !read {
		if d.cells != nil {
			t.Fatalf("index exists before any read: %+v", d.cells)
		}
		return
	}
	if want := rebuiltIndex(d); d.cells == nil || !sameCells(d.cells, want) {
		t.Fatalf("cells over %d nodes\n got %+v\nwant %+v", d.Len(), d.cells, want)
	}
}

// awkwardCoords are where a pruned search could go wrong: the poles (every
// longitude is the same point), the antimeridian (neighbours 360° apart in
// longitude), the equator/prime-meridian origin, near-antipodal latitudes
// (where haversine's asin loses the most digits), and the edges of the
// index's cells — latitudes and longitudes on multiples of cellDeg, each
// beside a point a hair inside the neighbouring cell.
var awkwardCoords = []geo.Coord{
	{LatDeg: 90, LonDeg: 0}, {LatDeg: 90, LonDeg: 135}, {LatDeg: -90, LonDeg: -60},
	{LatDeg: 89.9999, LonDeg: 10}, {LatDeg: 89.9999, LonDeg: -170}, {LatDeg: -89.9999, LonDeg: 77},
	{LatDeg: 12, LonDeg: 180}, {LatDeg: 12, LonDeg: -180}, {LatDeg: 12.0001, LonDeg: 179.9999},
	{LatDeg: 11.9999, LonDeg: -179.9999}, {LatDeg: 0, LonDeg: 0}, {LatDeg: 0, LonDeg: 180},
	{LatDeg: 2 * cellDeg, LonDeg: 3 * cellDeg}, {LatDeg: 2*cellDeg - 1e-9, LonDeg: 3*cellDeg - 1e-9},
	{LatDeg: -cellDeg, LonDeg: -cellDeg}, {LatDeg: -cellDeg + 1e-12, LonDeg: -cellDeg - 1e-12},
	{LatDeg: 90 - cellDeg, LonDeg: 180}, {LatDeg: 90 - cellDeg, LonDeg: -180},
	{LatDeg: -90 + cellDeg, LonDeg: 180 - cellDeg}, {LatDeg: -90, LonDeg: 180},
}

// randomCoord draws from the placer's clustered world (so pruning actually
// cuts the scan short), the awkward set, or a coarse grid (so duplicate
// coordinates and bit-equal distances are common).
func randomCoord(r *rand.Rand, placer *geo.Placer) geo.Coord {
	switch r.Intn(4) {
	case 0:
		return awkwardCoords[r.Intn(len(awkwardCoords))]
	case 1:
		return geo.Coord{LatDeg: float64(r.Intn(7)-3) * 30, LonDeg: float64(r.Intn(9)-4) * 45}
	default:
		return placer.Place(r).Coord
	}
}

// TestRecommendMatchesReference drives random registries through
// interleaved Register / Remove / relocate and, between mutations, requires
// Recommend to equal the full-sort oracle element for element — ties,
// absent self, and k at and beyond the population included. After every
// single mutation the ID list must ascend and the index equal the
// from-scratch rebuild. Even trials read the empty registry first, so every
// mutation patches a built index; odd trials run their first round of
// mutations with nothing read, so the index must stay nil until the round's
// queries build it from the populated lists.
func TestRecommendMatchesReference(t *testing.T) {
	placer := geo.DefaultPlacer()
	for trial := int64(0); trial < 40; trial++ {
		r := rand.New(rand.NewSource(trial))
		d := NewDNSSeed()
		read := trial%2 == 0
		if read {
			d.All()
			d.buildIndex()
		}
		maxID := 1 + r.Intn(400)
		for step := 0; step < 60; step++ {
			for m := r.Intn(24); m >= 0; m-- {
				id := p2p.NodeID(1 + r.Intn(maxID))
				switch r.Intn(4) {
				case 0:
					d.Remove(id)
				default: // registers a new node or relocates a known one
					d.Register(id, geo.Location{Coord: randomCoord(r, placer)})
				}
				checkOrderings(t, d, read)
			}
			d.All()
			n := d.Len()
			for _, k := range []int{-1, 0, 1, 16, 64, n - 1, n, n + 5} {
				self := p2p.NodeID(r.Intn(maxID + 1)) // 0 is never registered
				q := randomCoord(r, placer)
				if c, ok := coordOf(d, self); ok && r.Intn(2) == 0 {
					q = c // a node asking about its own surroundings
				}
				checkRecommend(t, d, self, q, k)
			}
			read = true
			checkOrderings(t, d, read)
		}
	}
}

// TestOrderingsPatchCases names the mutations a patch could get wrong and
// runs each over a small population twice: with the index read before the
// script (every step patches it) and with nothing read until after it
// (every step must leave it nil, and the first read then builds it).
func TestOrderingsPatchCases(t *testing.T) {
	type op struct {
		id     p2p.NodeID
		remove bool
		at     geo.Coord
	}
	home := geo.Coord{LatDeg: 10, LonDeg: 20}
	cases := []struct {
		name string
		ops  []op
	}{
		{"relocate along the same latitude", []op{{id: 3, at: geo.Coord{LatDeg: 10, LonDeg: -150}}}},
		{"relocate to another latitude", []op{{id: 3, at: geo.Coord{LatDeg: -45, LonDeg: 20}}}},
		{"relocate across a cell edge", []op{{id: 3, at: geo.Coord{LatDeg: 5 * cellDeg, LonDeg: 10 * cellDeg}}, {id: 3, at: geo.Coord{LatDeg: 5*cellDeg - 1e-9, LonDeg: 10*cellDeg - 1e-9}}}},
		{"empty a cell and fill it again", []op{{id: 1, at: geo.Coord{LatDeg: 50, LonDeg: 20}}, {id: 1, at: geo.Coord{LatDeg: 0, LonDeg: 20}}}},
		{"re-register at the same coordinate", []op{{id: 3, at: home}}},
		{"remove an unknown id", []op{{id: 99, remove: true}}},
		{"remove then re-add one id", []op{{id: 3, remove: true}, {id: 3, at: home}}},
		{"remove then re-add elsewhere", []op{{id: 3, remove: true}, {id: 3, at: geo.Coord{LatDeg: 80, LonDeg: 5}}}},
		{"arrival below every id", []op{{id: 0, at: geo.Coord{LatDeg: -90}}}},
		{"empty and refill", []op{{id: 1, remove: true}, {id: 2, remove: true}, {id: 3, remove: true}, {id: 4, remove: true}, {id: 5, remove: true}, {id: 7, at: home}}},
	}
	for _, tc := range cases {
		for _, read := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/readFirst=%v", tc.name, read), func(t *testing.T) {
				d := NewDNSSeed()
				for i, lat := range []float64{0, 10, 10, 10, 20} { // id 3 is at home, between two ties
					d.Register(p2p.NodeID(i+1), geo.Location{Coord: geo.Coord{LatDeg: lat, LonDeg: 20}})
				}
				if read {
					d.All()
					d.buildIndex()
				}
				for _, o := range tc.ops {
					if o.remove {
						d.Remove(o.id)
					} else {
						d.Register(o.id, geo.Location{Coord: o.at, Country: "updated"})
						if c, ok := coordOf(d, o.id); !ok || c != o.at {
							t.Fatalf("node %d at %v, %v after Register at %v", o.id, c, ok, o.at)
						}
					}
					checkOrderings(t, d, read)
				}
				d.All()
				d.buildIndex()
				checkOrderings(t, d, true)
				checkRecommend(t, d, 0, home, 3)
			})
		}
	}
}

// TestRecommendSubResolutionSeparation pins the absolute term of guard: a
// latitude gap too small for haversine to resolve yields distance 0, so the
// node across it ties with exact duplicates of the query and must still win
// on id.
func TestRecommendSubResolutionSeparation(t *testing.T) {
	d := NewDNSSeed()
	d.Register(1, geo.Location{Coord: geo.Coord{LatDeg: 1e-200}})
	for id := p2p.NodeID(2); id <= 5; id++ {
		d.Register(id, geo.Location{})
	}
	checkRecommend(t, d, 0, geo.Coord{}, 2)
}

// TestRecommendSeesRelocation: re-registering a known id somewhere else
// must not leave its old position in the index.
func TestRecommendSeesRelocation(t *testing.T) {
	d := NewDNSSeed()
	tokyo := geo.Coord{LatDeg: 35.68, LonDeg: 139.69}
	paris := geo.Coord{LatDeg: 48.86, LonDeg: 2.35}
	d.Register(1, geo.Location{Coord: tokyo})
	d.Register(2, geo.Location{Coord: geo.Coord{LatDeg: 52.37, LonDeg: 4.90}})
	london := geo.Location{Coord: geo.Coord{LatDeg: 51.51, LonDeg: -0.13}}
	if got := d.Recommend(0, london, 1); !slices.Equal(got, []p2p.NodeID{2}) {
		t.Fatalf("before relocation: %v, want [2]", got)
	}
	d.Register(1, geo.Location{Coord: paris})
	if got := d.Recommend(0, london, 1); !slices.Equal(got, []p2p.NodeID{1}) {
		t.Fatalf("after relocating 1 to Paris: %v, want [1]", got)
	}
}

// TestRecommendPrunes guards the two points of the index: on the placer's
// world a query evaluates great-circle distances for the k it returns and
// the few in the guard band of the k-th, and squared chords, each computed
// once, for a small multiple of k, not the registry.
func TestRecommendPrunes(t *testing.T) {
	const n, k = 3000, 64
	placer := geo.DefaultPlacer()
	r := rand.New(rand.NewSource(1))
	d := NewDNSSeed()
	locs := placer.PlaceN(r, n)
	for i, loc := range locs {
		d.Register(p2p.NodeID(i+1), loc)
	}
	dists, chords := 0, 0
	for i, loc := range locs {
		dn, cn := d.RecommendCost(p2p.NodeID(i+1), loc, k)
		dists, chords = dists+dn, chords+cn
	}
	if mean := float64(dists) / n; mean > k+8 {
		t.Errorf("mean great-circle evaluations per query = %.1f for k = %d; the guard band is not selecting", mean, k)
	}
	if mean := float64(chords) / n; mean > 4*k {
		t.Errorf("mean chord evaluations per query = %.0f over %d nodes; the search is not pruning", mean, n)
	}
}

// TestRecommendCompactsKept fills one cell with entries that, in the id
// order a cell is searched in, come ever nearer to the query. Each is within
// the band when it is seen, so the search keeps more than its stack buffer
// holds and must drop those the narrowing band has passed by, and still
// answer as the full sort does.
func TestRecommendCompactsKept(t *testing.T) {
	d := NewDNSSeed()
	q := geo.Coord{LatDeg: 41, LonDeg: 13}
	// keep fills at 4*stackK entries; with a few more after that, the
	// stackK nearest arrive both before and after it is compacted.
	const n = 4*stackK + stackK/4
	for i := 0; i < n; i++ {
		dd := 0.9 * float64(n-i) / n // degrees: every point in q's cell
		d.Register(p2p.NodeID(i+1), geo.Location{Coord: geo.Coord{LatDeg: q.LatDeg + dd/2, LonDeg: q.LonDeg + dd}})
	}
	for _, k := range []int{1, 16, stackK} {
		checkRecommend(t, d, 0, q, k)
	}
}

// TestRecommendGuardBand builds the registries that put chord order and
// haversine order at their closest, where a search that trusted the chord a
// little too far would return a different k than the full sort: it fails
// with either of guard's terms set to 0, and with the candidates left in
// chord order.
func TestRecommendGuardBand(t *testing.T) {
	at := func(lat, lon float64) geo.Coord { return geo.Coord{LatDeg: lat, LonDeg: lon} }
	type reg struct {
		name    string
		coords  []geo.Coord
		queries []geo.Coord
	}
	home := at(48.8566, 2.3522)
	var regs []reg

	// Near the antipode of the query haversine's h rounds to (or clamps at)
	// 1 and asin loses half its digits, so many distinct chords share one
	// distance and ids decide.
	anti := reg{name: "near-antipodal", queries: []geo.Coord{home, at(0, 0), at(90, 0), at(-35.2, 149.1)}}
	for _, q := range anti.queries {
		a := at(-q.LatDeg, q.LonDeg-180)
		if a.LonDeg < -180 {
			a.LonDeg += 360
		}
		for _, dd := range []float64{0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3} {
			for _, c := range []geo.Coord{
				at(a.LatDeg+dd, a.LonDeg), at(a.LatDeg-dd, a.LonDeg),
				at(a.LatDeg, a.LonDeg+dd), at(a.LatDeg, a.LonDeg-dd),
			} {
				if c.Valid() {
					anti.coords = append(anti.coords, c)
				}
			}
		}
	}
	regs = append(regs, anti)

	// Separations from below the unit vectors' resolution (1e-9 degrees is
	// 2e-11 of the radius) up to a hundred metres, in all four directions:
	// the chords cancel to nothing long before haversine stops resolving.
	tiny := reg{name: "tiny separations", queries: []geo.Coord{home, at(home.LatDeg+3e-9, home.LonDeg)}}
	for _, p := range []geo.Coord{home, at(0, 0), at(89.99999, 40)} {
		tiny.queries = append(tiny.queries, p)
		for e := -9; e <= -3; e++ {
			for _, m := range []float64{1, 1.5, 2, 3} {
				dd := m * math.Pow(10, float64(e))
				tiny.coords = append(tiny.coords,
					at(p.LatDeg+dd, p.LonDeg), at(p.LatDeg-dd, p.LonDeg),
					at(p.LatDeg, p.LonDeg+dd), at(p.LatDeg, p.LonDeg-dd))
			}
		}
	}
	regs = append(regs, tiny)

	// One point reached from both sides of the antimeridian: lon 180 and
	// -180 name it twice, and its neighbours sit 360 degrees apart.
	seam := reg{name: "antimeridian", queries: []geo.Coord{at(12, 180), at(12, -180), at(12, 179.99999), at(-40, -179.99999)}}
	for _, lat := range []float64{12, 12 + 1e-7, 12 - 1e-7, -40, 0} {
		for _, dd := range []float64{0, 1e-9, 1e-6, 1e-3, 1} {
			seam.coords = append(seam.coords, at(lat, 180-dd), at(lat, -180+dd))
		}
	}
	regs = append(regs, seam)

	// The poles at several longitudes: one point, many names, and every
	// meridian's neighbours equally far.
	poles := reg{name: "poles", queries: []geo.Coord{at(90, 0), at(90, -77), at(-90, 180), at(89.999999, 33), at(0, 10)}}
	for _, lon := range []float64{-180, -135, -77, 0, 33, 90, 179.5, 180} {
		for _, lat := range []float64{90, -90, 90 - 1e-9, 90 - 1e-6, -90 + 1e-6, 89} {
			poles.coords = append(poles.coords, at(lat, lon))
		}
	}
	regs = append(regs, poles)

	// More exact duplicates than k, straddling the k-th place: a nearer
	// handful, then a pile at one coordinate of which only the lowest ids
	// may be returned, then a farther handful.
	dups := reg{name: "duplicates across k", queries: []geo.Coord{home, at(home.LatDeg, home.LonDeg+0.5)}}
	for i := 0; i < 5; i++ {
		dups.coords = append(dups.coords, at(home.LatDeg+0.01*float64(i+1), home.LonDeg))
	}
	for i := 0; i < 40; i++ {
		dups.coords = append(dups.coords, at(home.LatDeg-0.2, home.LonDeg+0.1))
	}
	for i := 0; i < 5; i++ {
		dups.coords = append(dups.coords, at(home.LatDeg+0.5+0.01*float64(i), home.LonDeg-0.3))
	}
	regs = append(regs, dups)

	for _, rg := range regs {
		t.Run(rg.name, func(t *testing.T) {
			// Ids run against the insertion order, so an id tie-break is
			// never the order the walk happens to meet the entries in.
			d := NewDNSSeed()
			n := len(rg.coords)
			for i, c := range rg.coords {
				d.Register(p2p.NodeID((i*7919)%n+1), geo.Location{Coord: c})
			}
			if d.Len() != n {
				t.Fatalf("registered %d of %d: ids collide", d.Len(), n)
			}
			queries := append(slices.Clone(rg.queries), rg.coords...)
			for _, q := range queries {
				for _, k := range []int{1, 2, 3, 5, 8, 16, 24, n / 2, n - 1, n} {
					checkRecommend(t, d, 0, q, k)
					checkRecommend(t, d, 1, q, k)
				}
			}
		})
	}
}

// TestRecommendGuardBandRandom is TestRecommendGuardBand's point made with
// random registries, which the fuzzer's 1.4-degree grid cannot reach: tight
// clusters around a point and around its antipode, at scales from 10 degrees
// down to 1e-12, half of the members on a 7 x 7 lattice of the scale (rings
// of equal and almost equal distance) and half anywhere within it, queried
// from the centre, the antipode, a member and a random point.
func TestRecommendGuardBandRandom(t *testing.T) {
	wrap := func(c geo.Coord) geo.Coord {
		c.LatDeg = max(-90, min(90, c.LatDeg))
		switch {
		case c.LonDeg > 180:
			c.LonDeg -= 360
		case c.LonDeg < -180:
			c.LonDeg += 360
		}
		return c
	}
	for trial := int64(0); trial < 400; trial++ {
		r := rand.New(rand.NewSource(trial))
		centre := geo.Coord{LatDeg: r.Float64()*180 - 90, LonDeg: r.Float64()*360 - 180}
		switch r.Intn(6) {
		case 0:
			centre.LatDeg = 90 - math.Pow(10, -float64(r.Intn(12)))
		case 1:
			centre.LonDeg = 180 - math.Pow(10, -float64(r.Intn(12)))
		case 2:
			centre.LatDeg = 0
		}
		antipode := wrap(geo.Coord{LatDeg: -centre.LatDeg, LonDeg: centre.LonDeg - 180})
		d := NewDNSSeed()
		n := 20 + r.Intn(150)
		var members []geo.Coord
		for i := 0; i < n; i++ {
			base := centre
			if r.Intn(3) == 0 {
				base = antipode
			}
			scale := 10 * math.Pow(10, -float64(r.Intn(14)))
			dLat, dLon := float64(r.Intn(7)-3), float64(r.Intn(7)-3)
			if r.Intn(2) == 0 {
				dLat, dLon = r.Float64()-0.5, r.Float64()-0.5
			}
			c := wrap(geo.Coord{LatDeg: base.LatDeg + scale*dLat, LonDeg: base.LonDeg + scale*dLon})
			members = append(members, c)
			d.Register(p2p.NodeID(r.Intn(4*n)+1), geo.Location{Coord: c}) // some ids collide: relocations
		}
		for i := 0; i < 12; i++ {
			q := []geo.Coord{centre, antipode, members[r.Intn(n)],
				{LatDeg: r.Float64()*180 - 90, LonDeg: r.Float64()*360 - 180}}[r.Intn(4)]
			for _, k := range []int{1, 3, 8, 16, 64, d.Len()} {
				checkRecommend(t, d, p2p.NodeID(r.Intn(4*n)+1), q, k)
			}
		}
	}
}

// FuzzRecommendMatchesReference lets the fuzzer write the registry script.
// Each 4-byte record is (op, id, lat, lon) with coordinates on a 1.4°-ish
// grid that reaches both poles and the antimeridian, so exact ties and
// awkward geometry are one byte away; every query record is checked
// against the oracle for a k taken from the op byte. A query is also the
// registry's reader: the mutations before the script's first query must
// leave the index nil, and every mutation after it must leave it equal to
// the from-scratch rebuild.
func FuzzRecommendMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 127, 0, 0, 2, 129, 0, 3, 0, 0, 0})
	f.Add([]byte{0, 1, 10, 127, 0, 2, 10, 129, 0, 3, 10, 127, 7, 0, 10, 128})
	f.Add([]byte{0, 1, 5, 5, 0, 2, 5, 5, 0, 1, 90, 90, 1, 2, 0, 0, 11, 1, 5, 5})
	f.Add([]byte{0, 9, 0, 0, 0, 8, 0, 0, 0, 7, 1, 0, 0, 6, 255, 0, 15, 0, 0, 0})
	// Two of TestRecommendGuardBand's registries on the grid: three
	// duplicates and their neighbours asked about from their antipode, and
	// the pole under four longitudes beside one antimeridian point named
	// from both sides with four duplicates next to it.
	f.Add([]byte{0, 1, 64, 64, 0, 2, 64, 64, 0, 3, 64, 64, 0, 4, 63, 64, 0, 5, 64, 65, 0, 6, 65, 64, 18, 0, 192, 193, 14, 0, 192, 193})
	f.Add([]byte{0, 1, 127, 0, 0, 2, 127, 64, 0, 3, 127, 192, 0, 4, 127, 127, 0, 5, 17, 127, 0, 6, 17, 129,
		0, 7, 17, 126, 0, 8, 17, 126, 0, 9, 17, 126, 0, 10, 17, 126, 18, 0, 17, 127, 14, 0, 127, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			script = script[:1024]
		}
		d := NewDNSSeed()
		read := false
		for ; len(script) >= 4; script = script[4:] {
			op, id := script[0], p2p.NodeID(script[1]%32)
			c := geo.Coord{
				LatDeg: float64(int8(script[2])) / 127 * 90,
				LonDeg: float64(int8(script[3])) / 127 * 180,
			}
			if !c.Valid() { // int8(-128) overshoots the pole
				c = geo.Coord{LatDeg: -90, LonDeg: -180}
			}
			switch {
			case op%4 == 0 && id != 0:
				d.Register(id, geo.Location{Coord: c})
			case op%4 == 1:
				d.Remove(id)
			default:
				checkRecommend(t, d, id, c, int(op/4)-1)
				d.All()
				read = true
			}
			checkOrderings(t, d, read)
		}
	})
}
