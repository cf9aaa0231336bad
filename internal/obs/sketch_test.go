package obs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// relErr is the |a-b|/b relative error (b != 0).
func relErr(a, b time.Duration) float64 {
	if b == 0 {
		return math.Abs(float64(a))
	}
	return math.Abs(float64(a)-float64(b)) / math.Abs(float64(b))
}

// sketchTolerance is the asserted accuracy bound: the documented
// per-sample value error is sketchRelativeError (~1%); closest-rank vs
// interpolated percentile semantics add at most one bucket more.
const sketchTolerance = 3 * sketchRelativeError

func randomSamples(r *rand.Rand, n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		// Span microseconds to minutes — the range unit timings live in.
		exp := 3 + r.Float64()*8 // 10^3 .. 10^11 ns
		s[i] = time.Duration(math.Pow(10, exp))
	}
	return s
}

// exactPercentile is the reference: closest-rank linear interpolation
// over the sorted samples themselves.
func exactPercentile(sorted []time.Duration, p float64) time.Duration {
	rank := p / 100 * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	return sorted[lo] + time.Duration((rank-float64(lo))*float64(sorted[hi]-sorted[lo]))
}

// TestSketchTracksExact is the error-bound contract: the sketch's
// quantiles stay within the documented relative error of the exact
// percentiles of the same samples, and N/sum/min/max are exact.
func TestSketchTracksExact(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for round := 0; round < 50; round++ {
		samples := randomSamples(r, 1+r.Intn(2000))
		var s sketch
		var sum time.Duration
		for _, v := range samples {
			s.AddN(v, 1)
			sum += v
		}
		slices.Sort(samples)
		if s.N() != len(samples) || s.Sum() != sum {
			t.Fatalf("N/sum = %d/%v, exact %d/%v", s.N(), s.Sum(), len(samples), sum)
		}
		if s.Min() != samples[0] || s.Max() != samples[len(samples)-1] {
			t.Fatalf("min/max = %v/%v, exact %v/%v", s.Min(), s.Max(), samples[0], samples[len(samples)-1])
		}
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 99} {
			want := exactPercentile(samples, p)
			if e := relErr(s.Percentile(p), want); e > sketchTolerance {
				t.Fatalf("p%.0f = %v, exact %v (rel %.4f)", p, s.Percentile(p), want, e)
			}
		}
	}
}

// TestSketchAddNMatchesRepeatedAdd quick-checks that folding a sample in
// with a count leaves the same state as folding it in that many times,
// for arbitrary durations including zero and negatives (which clamp to
// the zero bucket).
func TestSketchAddNMatchesRepeatedAdd(t *testing.T) {
	f := func(raw []int64, counts []uint8) bool {
		var batched, single sketch
		for i, v := range raw {
			count := uint64(3)
			if i < len(counts) {
				count = uint64(counts[i] % 8)
			}
			batched.AddN(time.Duration(v), count)
			for ; count > 0; count-- {
				single.AddN(time.Duration(v), 1)
			}
		}
		return batched == single
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSketchEmptyAndZero(t *testing.T) {
	var s sketch
	if s.N() != 0 || s.Sum() != 0 || s.Percentile(50) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sketch not zero-valued")
	}
	s.AddN(0, 1)
	s.AddN(-time.Second, 1) // clamps to the zero bucket
	s.AddN(time.Hour, 0)    // a zero count adds nothing
	if s.N() != 2 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Errorf("zero-bucket handling: n=%d max=%v p50=%v", s.N(), s.Max(), s.Percentile(50))
	}
}

// TestSketchTopBucketDoesNotWrap pins the documented [1ns, 2^63ns)
// coverage: a sample near MaxInt64 lands in the top bucket, whose raw
// geometric midpoint exceeds MaxInt64 — the representative must clamp
// instead of wrapping negative (which clampRep would then silently pull
// up to min, misreporting huge samples as tiny ones).
func TestSketchTopBucketDoesNotWrap(t *testing.T) {
	var s sketch
	huge := time.Duration(math.MaxInt64)
	s.AddN(time.Nanosecond, 1)
	s.AddN(huge, 2)
	if s.Max() != huge {
		t.Fatalf("Max = %v, want %v", s.Max(), huge)
	}
	if p := s.Percentile(90); p < huge/2 {
		t.Errorf("p90 = %v collapsed toward min; top bucket representative wrapped", p)
	}
}
