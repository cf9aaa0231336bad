// Package geo models the geographic placement of Bitcoin peers.
//
// Two consumers need geography:
//
//   - the latency model: eq. (3) of the paper converts great-circle
//     distance into signal propagation delay (P = D(m)/S);
//   - the LBC baseline protocol: it clusters peers by geographic
//     location (country), so each peer needs a country label.
//
// Peers are placed by sampling from a weighted table of world cities that
// approximates the measured country distribution of reachable Bitcoin
// nodes circa 2016 (US and EU heavy, significant CN/RU presence), then
// jittering within the metro area. The table is synthetic but the shape —
// a few dense regions separated by oceanic distances — is what the paper's
// argument depends on: geographic closeness correlates imperfectly with
// network closeness.
package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// EarthRadiusMeters is the mean Earth radius used for great-circle math.
const EarthRadiusMeters = 6_371_000

// Coord is a point on the Earth's surface in degrees.
type Coord struct {
	LatDeg float64
	LonDeg float64
}

// String implements fmt.Stringer.
func (c Coord) String() string {
	return fmt.Sprintf("(%.3f,%.3f)", c.LatDeg, c.LonDeg)
}

// Valid reports whether the coordinate is within latitude [-90,90] and
// longitude [-180,180].
func (c Coord) Valid() bool {
	return c.LatDeg >= -90 && c.LatDeg <= 90 && c.LonDeg >= -180 && c.LonDeg <= 180
}

// DistanceMeters returns the great-circle (haversine) distance between two
// coordinates, in meters. This is the D(m) term of paper eq. (3).
func DistanceMeters(a, b Coord) float64 {
	lat1 := a.LatDeg * math.Pi / 180
	lat2 := b.LatDeg * math.Pi / 180
	dLat := (b.LatDeg - a.LatDeg) * math.Pi / 180
	dLon := (b.LonDeg - a.LonDeg) * math.Pi / 180

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// City is one entry of the placement table.
type City struct {
	Name    string
	Country string // ISO-3166-ish alpha-2 label, used by LBC clustering
	Region  string // coarse continental region
	Coord   Coord
	Weight  float64 // relative share of peers placed here
}

// Location is an assigned peer position.
type Location struct {
	Coord   Coord
	City    string
	Country string
	Region  string
}

// Placer samples peer locations from a weighted city table.
type Placer struct {
	cities []City
	cum    []float64 // cumulative weights for binary search
	total  float64
	// jitterMeters is the radius of uniform metro-area jitter applied to
	// each placement.
	jitterMeters float64
}

// NewPlacer builds a placer over the given table. An empty or zero-weight
// table is a programming error and panics. jitterMeters spreads peers
// around their city center; 50km approximates a metro area.
func NewPlacer(cities []City, jitterMeters float64) *Placer {
	if len(cities) == 0 {
		panic("geo: empty city table")
	}
	p := &Placer{cities: cities, jitterMeters: jitterMeters}
	p.cum = make([]float64, len(cities))
	for i, c := range cities {
		if c.Weight < 0 {
			panic(fmt.Sprintf("geo: negative weight for %s", c.Name))
		}
		p.total += c.Weight
		p.cum[i] = p.total
	}
	if p.total <= 0 {
		panic("geo: city table has zero total weight")
	}
	return p
}

// DefaultPlacer returns a placer over the built-in world city table.
func DefaultPlacer() *Placer {
	return NewPlacer(WorldCities(), 50_000)
}

// Place samples one location using r.
func (p *Placer) Place(r *rand.Rand) Location {
	x := r.Float64() * p.total
	// Binary search the cumulative table.
	lo, hi := 0, len(p.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c := p.cities[lo]
	return Location{
		Coord:   jitter(r, c.Coord, p.jitterMeters),
		City:    c.Name,
		Country: c.Country,
		Region:  c.Region,
	}
}

// PlaceN samples n locations.
func (p *Placer) PlaceN(r *rand.Rand, n int) []Location {
	out := make([]Location, n)
	for i := range out {
		out[i] = p.Place(r)
	}
	return out
}

// jitter displaces c by a uniform random offset within radiusMeters.
func jitter(r *rand.Rand, c Coord, radiusMeters float64) Coord {
	if radiusMeters <= 0 {
		return c
	}
	// Uniform over the disk: radius proportional to sqrt(u).
	d := radiusMeters * math.Sqrt(r.Float64())
	theta := 2 * math.Pi * r.Float64()
	dLat := d * math.Cos(theta) / EarthRadiusMeters * 180 / math.Pi
	cosLat := math.Cos(c.LatDeg * math.Pi / 180)
	if math.Abs(cosLat) < 1e-6 {
		cosLat = 1e-6 // polar degenerate case; longitude is meaningless there anyway
	}
	dLon := d * math.Sin(theta) / (EarthRadiusMeters * cosLat) * 180 / math.Pi
	out := Coord{LatDeg: c.LatDeg + dLat, LonDeg: c.LonDeg + dLon}
	// Clamp rather than wrap: jitter is small, so clamping only matters at
	// the antimeridian/poles and keeps coordinates trivially Valid.
	out.LatDeg = math.Max(-90, math.Min(90, out.LatDeg))
	if out.LonDeg > 180 {
		out.LonDeg -= 360
	} else if out.LonDeg < -180 {
		out.LonDeg += 360
	}
	return out
}
