package latency

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero ping bytes", func(p *Params) { p.PingBytes = 0 }},
		{"negative rate", func(p *Params) { p.RateBytesPerSec = -1 }},
		{"negative arrivals", func(p *Params) { p.ArrivalRatePerSec = -0.5 }},
		{"stretch below 1", func(p *Params) { p.PathStretch = 0.9 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("Validate accepted bad params")
			}
		})
	}
}

func TestPropagationDelayPhysics(t *testing.T) {
	p := DefaultParams()
	p.PathStretch = 1
	p.Medium = Wireless
	// 3000 km at c is 10 ms one way.
	got := p.PropagationDelay(3_000_000)
	if math.Abs(float64(got-10*time.Millisecond)) > float64(50*time.Microsecond) {
		t.Errorf("PropagationDelay(3000km, c) = %v, want ~10ms", got)
	}
	// Copper is 1.5x slower.
	p.Medium = Copper
	got = p.PropagationDelay(3_000_000)
	if math.Abs(float64(got-15*time.Millisecond)) > float64(75*time.Microsecond) {
		t.Errorf("PropagationDelay(3000km, copper) = %v, want ~15ms", got)
	}
}

func TestPropagationDelayNegativeDistanceClamps(t *testing.T) {
	p := DefaultParams()
	if d := p.PropagationDelay(-5); d != 0 {
		t.Errorf("PropagationDelay(-5) = %v, want 0", d)
	}
}

func TestQueuingDelayStableRegime(t *testing.T) {
	p := DefaultParams()
	// r = 1 MiB/s, Mping = 32B, λ = 4/s: essentially pure service time.
	got := p.QueuingDelay()
	wantSec := 32.0 / (float64(1<<20) - 4*32)
	want := time.Duration(wantSec * float64(time.Second))
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("QueuingDelay = %v, want ~%v", got, want)
	}
}

func TestQueuingDelayUnstableRegimeCaps(t *testing.T) {
	p := DefaultParams()
	p.RateBytesPerSec = 100
	p.ArrivalRatePerSec = 10 // λ·Mping = 320 > r = 100: unstable
	if got := p.QueuingDelay(); got != time.Second {
		t.Errorf("unstable QueuingDelay = %v, want 1s cap", got)
	}
}

func TestUtilityMonotoneInDistance(t *testing.T) {
	p := DefaultParams()
	f := func(a, b uint32) bool {
		da, db := float64(a%20_000_000), float64(b%20_000_000)
		ua, ub := p.Utility(da), p.Utility(db)
		if da < db {
			return ua <= ub
		}
		return ub <= ua
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUtilityBetweenMatchesGeoDistance(t *testing.T) {
	p := DefaultParams()
	ny := geo.Coord{LatDeg: 40.71, LonDeg: -74.01}
	ld := geo.Coord{LatDeg: 51.51, LonDeg: -0.13}
	want := p.Utility(geo.DistanceMeters(ny, ld))
	if got := p.UtilityBetween(ny, ld); got != want {
		t.Errorf("UtilityBetween = %v, want %v", got, want)
	}
	// NYC-London: ~5570 km, stretch 2, copper -> 2P ≈ 111 ms round trip.
	rt := p.UtilityBetween(ny, ld)
	if rt < 80*time.Millisecond || rt > 150*time.Millisecond {
		t.Errorf("NYC-London utility = %v, want ~111ms", rt)
	}
}

func TestMediumString(t *testing.T) {
	if Copper.String() != "copper" || Wireless.String() != "wireless" {
		t.Error("Medium.String mismatch")
	}
	if Medium(42).String() == "" {
		t.Error("unknown medium should still stringify")
	}
}

func TestNewModelRejectsInvalid(t *testing.T) {
	p := DefaultParams()
	p.PingBytes = -1
	if _, err := NewModel(p); err == nil {
		t.Error("NewModel accepted invalid params")
	}
}

// TestMaxBaseBoundsLinks: no link drawn between antipodes — the longest
// utility — reaches MaxBase, and the default model's bound stays under a
// minute.
func TestMaxBaseBoundsLinks(t *testing.T) {
	m, err := NewModel(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	bound := m.MaxBase()
	if bound <= 0 || bound > time.Minute {
		t.Fatalf("MaxBase = %v, want within (0, 1m]", bound)
	}
	r := rand.New(rand.NewSource(1))
	a, b := geo.Coord{LatDeg: 0, LonDeg: 0}, geo.Coord{LatDeg: 0, LonDeg: 180}
	for i := 0; i < 10_000; i++ {
		if l := m.NewLink(r, a, b); l.Base() > bound {
			t.Fatalf("link base %v above MaxBase %v", l.Base(), bound)
		}
	}
}

func TestLinkBaseIncludesGeoAndLastMile(t *testing.T) {
	m, err := NewModel(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	ny := geo.Coord{LatDeg: 40.71, LonDeg: -74.01}
	tk := geo.Coord{LatDeg: 35.68, LonDeg: 139.69}
	geoOnly := m.Params().UtilityBetween(ny, tk)
	for i := 0; i < 100; i++ {
		l := m.NewLink(r, ny, tk)
		if l.Base() <= geoOnly {
			t.Fatalf("link base %v <= geographic floor %v; last mile missing", l.Base(), geoOnly)
		}
	}
}

func TestLinkSamplesPositiveAndCentered(t *testing.T) {
	m, err := NewModel(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	l := m.NewLinkWithBase(100 * time.Millisecond)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		s := l.SampleRTT(r)
		if s <= 0 {
			t.Fatalf("non-positive RTT sample %v", s)
		}
		sum += s
	}
	mean := sum / n
	// Mean is slightly above base because spikes are one-sided.
	if mean < 95*time.Millisecond || mean > 115*time.Millisecond {
		t.Errorf("mean RTT = %v, want ~100-110ms around base 100ms", mean)
	}
}

func TestSampleOneWayIsHalfRTTScale(t *testing.T) {
	m, _ := NewModel(DefaultParams())
	r := rand.New(rand.NewSource(3))
	l := m.NewLinkWithBase(80 * time.Millisecond)
	var sum time.Duration
	const n = 10000
	for i := 0; i < n; i++ {
		sum += l.SampleOneWay(r)
	}
	mean := sum / n
	if mean < 35*time.Millisecond || mean > 50*time.Millisecond {
		t.Errorf("mean one-way = %v, want ~40-45ms for 80ms base", mean)
	}
}

func TestNewLinkWithBaseClampsNegative(t *testing.T) {
	m, _ := NewModel(DefaultParams())
	if l := m.NewLinkWithBase(-time.Second); l.Base() != 0 {
		t.Errorf("negative base = %v, want 0", l.Base())
	}
}

func TestCloseLinksFasterThanFarLinks(t *testing.T) {
	// The property the whole paper rests on: links between nearby nodes
	// have lower RTT than intercontinental links, in distribution.
	m, _ := NewModel(DefaultParams())
	r := rand.New(rand.NewSource(4))
	frankfurt := geo.Coord{LatDeg: 50.11, LonDeg: 8.68}
	amsterdam := geo.Coord{LatDeg: 52.37, LonDeg: 4.90}
	sydney := geo.Coord{LatDeg: -33.87, LonDeg: 151.21}
	var nearWins int
	const trials = 500
	for i := 0; i < trials; i++ {
		near := m.NewLink(r, frankfurt, amsterdam)
		far := m.NewLink(r, frankfurt, sydney)
		if near.SampleRTT(r) < far.SampleRTT(r) {
			nearWins++
		}
	}
	if nearWins < trials*9/10 {
		t.Errorf("near link beat far link only %d/%d times", nearWins, trials)
	}
}

func TestEstimatorZeroValue(t *testing.T) {
	var e Estimator
	if e.Ready() || e.Samples() != 0 || e.RTT() != 0 || e.Var() != 0 || e.Min() != 0 {
		t.Error("zero-value Estimator not empty")
	}
}

func TestEstimatorIgnoresBadSamples(t *testing.T) {
	var e Estimator
	e.Observe(0)
	e.Observe(-time.Second)
	if e.Samples() != 0 {
		t.Errorf("bad samples counted: %d", e.Samples())
	}
}

func TestEstimatorConvergesToConstant(t *testing.T) {
	var e Estimator
	for i := 0; i < 50; i++ {
		e.Observe(40 * time.Millisecond)
	}
	if got := e.RTT(); got < 39*time.Millisecond || got > 41*time.Millisecond {
		t.Errorf("SRTT = %v, want ~40ms", got)
	}
	if e.Var() > time.Millisecond {
		t.Errorf("Var = %v, want ~0 for constant signal", e.Var())
	}
	if e.Min() != 40*time.Millisecond {
		t.Errorf("Min = %v, want 40ms", e.Min())
	}
}

func TestEstimatorMinTracksFloor(t *testing.T) {
	var e Estimator
	e.Observe(100 * time.Millisecond)
	e.Observe(80 * time.Millisecond)
	e.Observe(120 * time.Millisecond)
	if e.Min() != 80*time.Millisecond {
		t.Errorf("Min = %v, want 80ms", e.Min())
	}
	if !e.Ready() {
		t.Error("3 samples should be Ready")
	}
}

func TestEstimatorSmoothsSpikes(t *testing.T) {
	var e Estimator
	for i := 0; i < 20; i++ {
		e.Observe(50 * time.Millisecond)
	}
	e.Observe(500 * time.Millisecond) // one congestion spike
	// SRTT moves by at most alpha*(500-50) ≈ 56ms.
	if got := e.RTT(); got > 110*time.Millisecond {
		t.Errorf("SRTT after spike = %v; spike not smoothed", got)
	}
	if e.Min() != 50*time.Millisecond {
		t.Errorf("Min perturbed by spike: %v", e.Min())
	}
}

// Property: estimator SRTT always stays within the observed sample range.
func TestPropertyEstimatorWithinRange(t *testing.T) {
	f := func(raw []uint16) bool {
		var e Estimator
		lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
		n := 0
		for _, v := range raw {
			// Widen before adding 1: v+1 in uint16 arithmetic wraps to 0
			// at v=0xffff, producing a non-positive sample Observe
			// (correctly) ignores but the range bookkeeping would count.
			d := (time.Duration(v) + 1) * time.Millisecond
			e.Observe(d)
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
			n++
		}
		if n == 0 {
			return true
		}
		return e.RTT() >= lo-time.Millisecond && e.RTT() <= hi+time.Millisecond && e.Min() == lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSampleRTT(b *testing.B) {
	m, _ := NewModel(DefaultParams())
	r := rand.New(rand.NewSource(1))
	l := m.NewLinkWithBase(50 * time.Millisecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = l.SampleRTT(r)
	}
}

func BenchmarkEstimatorObserve(b *testing.B) {
	var e Estimator
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Observe(time.Duration(i%100+1) * time.Millisecond)
	}
}
