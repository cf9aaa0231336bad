package measure

import (
	"math"
	"time"
)

// StreamingDistribution is a bounded-memory summary of a duration sample:
// a fixed-size log-scale histogram (DDSketch-style) plus exact count, sum,
// min and max. It is the campaign engine's memory-diet alternative to
// NewDistribution, which retains every sample: a sketch holds O(buckets)
// memory (sketchBuckets counters, ~18 KiB) no matter how many samples are
// added, so an N-specs × M-replications sweep no longer scales its
// footprint with Runs × Connections × Replications.
//
// Accuracy contract: quantiles are value-relative-accurate to
// sketchRelativeError (about 1%) — each positive sample lands in the
// bucket [γ^(i-1), γ^i) ns and is reported as the bucket's geometric
// midpoint. Mean is exact (integer sum / count). Std is computed from the
// bucket midpoints and inherits the ~1% value error. Min and Max are
// exact. Exact zero (and clamped negatives) occupy a dedicated bucket.
//
// Determinism contract: the sketch state is integers only (bucket counts,
// n, sum, min, max), merged by commutative integer addition, and every
// derived statistic iterates buckets in a fixed order — so Merge is
// order-independent bit for bit, matching MergeDistributions. The
// documented sum capacity is ~2^63 ns ≈ 292 sample-years, far beyond any
// campaign.
type StreamingDistribution struct {
	counts []uint64 // len sketchBuckets; bucket 0 is the exact-zero bucket
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
	// sketchRelativeError documents the quantile/std value accuracy.
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

// NewStreamingDistribution returns an empty sketch.
func NewStreamingDistribution() *StreamingDistribution {
	return &StreamingDistribution{counts: make([]uint64, sketchBuckets)}
}

// Add folds one sample into the sketch. Negative durations clamp to the
// zero bucket (Δt samples are never negative by construction).
func (s *StreamingDistribution) Add(v time.Duration) { s.AddN(v, 1) }

// AddN folds count copies of one sample into the sketch.
func (s *StreamingDistribution) AddN(v time.Duration, count uint64) {
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

// Merge folds another sketch into this one. Pure integer addition:
// merging any permutation of sketches yields bit-identical state.
func (s *StreamingDistribution) Merge(o *StreamingDistribution) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	if s.n == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.n == 0 || o.max > s.max {
		s.max = o.max
	}
	s.n += o.n
	s.sum += o.sum
}

// Clone returns an independent copy of the sketch.
func (s *StreamingDistribution) Clone() *StreamingDistribution {
	c := *s
	c.counts = append([]uint64(nil), s.counts...)
	return &c
}

// N returns the number of samples folded in.
func (s *StreamingDistribution) N() int { return int(s.n) }

// Buckets returns the fixed bucket count — the sketch's memory bound,
// independent of N. Tests assert against it.
func (s *StreamingDistribution) Buckets() int { return len(s.counts) }

// Min returns the exact smallest sample (0 if empty).
func (s *StreamingDistribution) Min() time.Duration {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact largest sample (0 if empty).
func (s *StreamingDistribution) Max() time.Duration {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Sum returns the exact integer sum of all samples. Together with N it
// lets the sketch back an obs.Sketch histogram, whose exposition needs
// the running total.
func (s *StreamingDistribution) Sum() time.Duration { return time.Duration(s.sum) }

// Mean returns the exact arithmetic mean (integer sum over count).
func (s *StreamingDistribution) Mean() time.Duration {
	if s.n == 0 {
		return 0
	}
	return time.Duration(s.sum / int64(s.n))
}

// Std returns the population standard deviation computed from bucket
// midpoints (value accuracy ~sketchRelativeError). Buckets are iterated
// in fixed index order, so the result is a pure function of the sketch
// state.
func (s *StreamingDistribution) Std() time.Duration {
	if s.n == 0 {
		return 0
	}
	mean := float64(s.sum) / float64(s.n)
	var sq float64
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		d := float64(s.clampRep(i)) - mean
		sq += d * d * float64(c)
	}
	return time.Duration(math.Sqrt(sq / float64(s.n)))
}

// clampRep is the representative of bucket i clamped into [min, max], so
// bucket-edge effects never report values outside the observed range.
func (s *StreamingDistribution) clampRep(i int) time.Duration {
	v := sketchValue(i)
	if v < s.min {
		v = s.min
	}
	if v > s.max {
		v = s.max
	}
	return v
}

// rankValue returns the bucket representative of the k-th order statistic
// (0-based).
func (s *StreamingDistribution) rankValue(k uint64) time.Duration {
	var cum uint64
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum > k {
			return s.clampRep(i)
		}
	}
	return s.max
}

// Percentile returns the p-th percentile (0 <= p <= 100) with the same
// closest-rank linear interpolation as the exact Distribution, applied to
// bucket representatives — so exact and streaming percentiles agree to
// within the sketch's value error, even on heavy-tailed samples where
// neighbouring order statistics differ by multiples. p=0 and p=100 return
// the exact min and max.
func (s *StreamingDistribution) Percentile(p float64) time.Duration {
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

// equal reports bit-identical sketch state.
func (s *StreamingDistribution) equal(o *StreamingDistribution) bool {
	if s.n != o.n || s.sum != o.sum || s.min != o.min || s.max != o.max {
		return false
	}
	for i, c := range s.counts {
		if c != o.counts[i] {
			return false
		}
	}
	return true
}

// Dist wraps an independent snapshot of the sketch in the Distribution
// API, so figure renderers, CSV writers and merge layers consume exact
// and streaming summaries interchangeably. Later Adds to s do not affect
// the returned Distribution.
func (s *StreamingDistribution) Dist() Distribution { return s.Clone().dist() }

// dist wraps s itself, for a caller that owns it and adds nothing more.
func (s *StreamingDistribution) dist() Distribution {
	return Distribution{sketch: s, mean: s.Mean(), std: s.Std()}
}
