package obs

import (
	"math"
	"time"
)

// sketch is the quantile backend of a Histogram: a fixed-size log-scale
// histogram (DDSketch-style) plus exact count, sum, min and max, so a
// histogram's memory stays constant however many durations it observes.
//
// Accuracy contract: quantiles are value-relative-accurate to
// sketchRelativeError (about 1%) — each positive sample lands in the
// bucket [γ^(i-1), γ^i) ns and is reported as the bucket's geometric
// midpoint. N, Sum, Min and Max are exact. Exact zero (and clamped
// negatives) occupy a dedicated bucket. The documented sum capacity is
// ~2^63 ns ≈ 292 sample-years.
//
// The zero value is an empty sketch.
type sketch struct {
	counts [sketchBuckets]uint64 // bucket 0 is the exact-zero bucket
	n      uint64
	sum    int64 // exact total in nanoseconds
	min    time.Duration
	max    time.Duration
}

const (
	// sketchGamma is the log-bucket growth factor; quantile values are
	// accurate to within ±(γ-1)/2 ≈ 1% relative error.
	sketchGamma = 1.02
	// sketchBuckets covers exact zero (bucket 0) plus [1ns, 2^63 ns) in
	// γ-wide buckets: ceil(ln(2^63)/ln(γ)) = 2206 log buckets.
	sketchBuckets = 2208
	// sketchRelativeError documents the quantile value accuracy.
	sketchRelativeError = (sketchGamma - 1) / 2
)

var invLnGamma = 1 / math.Log(sketchGamma)

// sketchIndex maps a sample to its bucket.
func sketchIndex(v time.Duration) int {
	if v <= 0 {
		return 0
	}
	idx := 1 + int(math.Floor(math.Log(float64(v))*invLnGamma))
	if idx < 1 {
		idx = 1 // guard rounding at v == 1ns
	}
	if idx >= sketchBuckets {
		idx = sketchBuckets - 1
	}
	return idx
}

// sketchValue returns the representative (geometric midpoint) of bucket i.
// The top bucket's midpoint γ^(i-0.5) can exceed MaxInt64 (its upper edge
// is beyond the int64 range), so the result is clamped before the float
// conversion would wrap negative.
func sketchValue(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	v := math.Exp((float64(i) - 0.5) / invLnGamma)
	if v >= math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(v)
}

// AddN folds count copies of one sample into the sketch. Negative
// durations clamp to the zero bucket.
func (s *sketch) AddN(v time.Duration, count uint64) {
	if count == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	s.counts[sketchIndex(v)] += count
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n += count
	s.sum += int64(v) * int64(count)
}

// N returns the number of samples folded in.
func (s *sketch) N() int { return int(s.n) }

// Sum returns the exact integer sum of all samples.
func (s *sketch) Sum() time.Duration { return time.Duration(s.sum) }

// Min returns the exact smallest sample (0 if empty).
func (s *sketch) Min() time.Duration { return s.min }

// Max returns the exact largest sample (0 if empty).
func (s *sketch) Max() time.Duration { return s.max }

// clampRep is the representative of bucket i clamped into [min, max], so
// bucket-edge effects never report values outside the observed range.
func (s *sketch) clampRep(i int) time.Duration {
	return min(max(sketchValue(i), s.min), s.max)
}

// rankValue returns the bucket representative of the k-th order statistic
// (0-based).
func (s *sketch) rankValue(k uint64) time.Duration {
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum > k {
			return s.clampRep(i)
		}
	}
	return s.max
}

// Percentile returns the p-th percentile (0 <= p <= 100) by closest-rank
// linear interpolation over bucket representatives, so it agrees with the
// exact percentile of the same samples to within the sketch's value error,
// even on heavy-tailed samples where neighbouring order statistics differ
// by multiples. p=0 and p=100 return the exact min and max.
func (s *sketch) Percentile(p float64) time.Duration {
	if s.n == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	rank := p / 100 * float64(s.n-1)
	lo := uint64(math.Floor(rank))
	hi := uint64(math.Ceil(rank))
	vlo := s.rankValue(lo)
	if lo == hi {
		return vlo
	}
	vhi := s.rankValue(hi)
	frac := rank - float64(lo)
	return vlo + time.Duration(frac*float64(vhi-vlo))
}
