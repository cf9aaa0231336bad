// Package measure implements the paper's evaluation methodology (§V):
// the measuring node m that injects transactions and records Δt(m,n) for
// each of its connections (eq. 5), the distribution statistics the
// figures report, and a synthetic network crawler reproducing the
// ping/pong measurement campaign that parameterised the simulator.
package measure

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// Distribution summarises a sample of durations. It retains every sample,
// sorted — 8 bytes each, bit-exact statistics — is immutable once built,
// and merges deterministically and order-independently via
// MergeDistributions.
type Distribution struct {
	sorted []time.Duration
	mean   time.Duration
	std    time.Duration
}

// NewDistribution copies and summarises samples. Empty input yields a
// zero Distribution.
func NewDistribution(samples []time.Duration) Distribution {
	s := slices.Clone(samples)
	slices.Sort(s)
	return newSortedDistribution(s)
}

// newSortedDistribution summarises samples that are already ascending,
// taking ownership of the slice. Every Distribution is built here,
// so mean and std always sum in ascending order and equal samples give
// equal float bits whichever path sorted them.
func newSortedDistribution(s []time.Duration) Distribution {
	if len(s) == 0 {
		return Distribution{}
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	mean := sum / float64(len(s))
	var sq float64
	for _, v := range s {
		d := float64(v) - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(s)))
	return Distribution{
		sorted: s,
		mean:   time.Duration(mean),
		std:    time.Duration(std),
	}
}

// N returns the sample count.
func (d Distribution) N() int { return len(d.sorted) }

// Samples returns a copy of the sorted sample slice. Exposed so callers
// (tests, serializers, merge layers) can compare distributions for exact
// equality without reaching into internals.
func (d Distribution) Samples() []time.Duration {
	return append([]time.Duration(nil), d.sorted...)
}

// Equal reports whether two distributions carry exactly the same samples.
func (d Distribution) Equal(o Distribution) bool {
	if len(d.sorted) != len(o.sorted) || d.mean != o.mean || d.std != o.std {
		return false
	}
	for i, v := range d.sorted {
		if v != o.sorted[i] {
			return false
		}
	}
	return true
}

// MergeDistributions pools the given distributions into one. The result
// depends only on the multiset of samples, never on the argument order,
// so sharded computations merge deterministically.
func MergeDistributions(ds ...Distribution) Distribution {
	runs := make([][]time.Duration, len(ds))
	for i, d := range ds {
		runs[i] = d.sorted
	}
	return newSortedDistribution(mergeSorted(runs))
}

// mergeSorted merges ascending runs into one new ascending slice: the
// runs are laid end to end, then neighbouring runs are merged pairwise
// between two buffers until one is left — O(n log k) comparisons for k
// runs of n samples in all, where re-sorting the concatenation would pay
// O(n log n).
func mergeSorted(runs [][]time.Duration) []time.Duration {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	src := make([]time.Duration, 0, total)
	ends := make([]int, 0, len(runs)) // ends[i] is where run i stops in src
	for _, r := range runs {
		if len(r) > 0 {
			src = append(src, r...)
			ends = append(ends, len(src))
		}
	}
	if len(ends) < 2 {
		return src
	}
	dst := make([]time.Duration, total)
	for len(ends) > 1 {
		// ends is compacted in place: entry i/2 is written only after
		// entries i and i+1 were read.
		merged := ends[:0]
		lo := 0
		for i := 0; i < len(ends); i += 2 {
			mid, hi := ends[i], ends[i]
			if i+1 < len(ends) {
				hi = ends[i+1]
			}
			mergeTwo(dst[lo:hi], src[lo:mid], src[mid:hi])
			merged = append(merged, hi)
			lo = hi
		}
		ends = merged
		src, dst = dst, src
	}
	return src
}

// mergeTwo fills dst, whose length is len(a)+len(b), with the merge of
// ascending a and b.
func mergeTwo(dst, a, b []time.Duration) {
	if len(b) == 0 || a[len(a)-1] <= b[0] {
		copy(dst[copy(dst, a):], b)
		return
	}
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || (i < len(a) && a[i] <= b[j]) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// Mean returns the arithmetic mean.
func (d Distribution) Mean() time.Duration { return d.mean }

// Std returns the population standard deviation. The paper's figures
// compare "variances of delays"; Std is the comparable spread measure in
// time units.
func (d Distribution) Std() time.Duration { return d.std }

// Min returns the smallest sample (0 if empty).
func (d Distribution) Min() time.Duration {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[0]
}

// Max returns the largest sample (0 if empty).
func (d Distribution) Max() time.Duration {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[len(d.sorted)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation between closest ranks.
func (d Distribution) Percentile(p float64) time.Duration {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return d.sorted[0]
	}
	if p >= 100 {
		return d.sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.sorted[lo]
	}
	frac := rank - float64(lo)
	return d.sorted[lo] + time.Duration(frac*float64(d.sorted[hi]-d.sorted[lo]))
}

// Median returns the 50th percentile.
func (d Distribution) Median() time.Duration { return d.Percentile(50) }

// IQR returns the interquartile range, p75 − p25: the spread of the middle
// half of the samples, which — unlike Std — a single far outlier leaves
// where it was.
func (d Distribution) IQR() time.Duration { return d.Percentile(75) - d.Percentile(25) }

// CDF returns (value, cumulative fraction) pairs at the given number of
// evenly spaced quantiles — the series Figs. 3 and 4 plot.
func (d Distribution) CDF(points int) []CDFPoint {
	if points < 2 || d.N() == 0 {
		return nil
	}
	out := make([]CDFPoint, points)
	for i := 0; i < points; i++ {
		frac := float64(i) / float64(points-1)
		out[i] = CDFPoint{
			Fraction: frac,
			Value:    d.Percentile(frac * 100),
		}
	}
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Fraction float64
	Value    time.Duration
}

// String renders a one-line summary: the moments, then the quantiles and
// the spread between them, which one outlying sample cannot move.
func (d Distribution) String() string {
	us := func(v time.Duration) time.Duration { return v.Round(time.Microsecond) }
	return fmt.Sprintf("n=%d mean=%v std=%v iqr=%v p10=%v p50=%v p90=%v max=%v",
		d.N(), us(d.Mean()), us(d.Std()), us(d.IQR()),
		us(d.Percentile(10)), us(d.Median()), us(d.Percentile(90)), us(d.Max()))
}

// ASCIICDF renders CDFs side by side as an ASCII chart for terminal
// output: one row per quantile, one column per named series.
func ASCIICDF(names []string, dists []Distribution, rows int) string {
	if len(names) != len(dists) || len(names) == 0 || rows < 2 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8s", "CDF")
	for _, n := range names {
		fmt.Fprintf(&b, " %14s", n)
	}
	b.WriteByte('\n')
	for i := 0; i < rows; i++ {
		frac := float64(i) / float64(rows-1)
		fmt.Fprintf(&b, "%7.0f%%", frac*100)
		for _, d := range dists {
			fmt.Fprintf(&b, " %14v", d.Percentile(frac*100).Round(time.Millisecond))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
