package main

import (
	"sort"
	"time"
)

// The simulator is deterministic, so op i of a workload does bit-identical
// work in every pass and the passes differ only by host noise, which can
// only add time. The timed metric of a workload is therefore the sum over
// its ops of the fastest time each op was seen to take in any pass: a
// noisy spell has to hit the same op in every pass to show up in it.

// fastestPerOp returns, for passes[p][i] the time of op i in pass p, the
// fastest time of each op. Passes cut short by an error count for the ops
// they have.
func fastestPerOp(passes [][]int64) []int64 {
	var fastest []int64
	for _, ops := range passes {
		for i, ns := range ops {
			switch {
			case i == len(fastest):
				fastest = append(fastest, ns)
			case ns < fastest[i]:
				fastest[i] = ns
			}
		}
	}
	return fastest
}

func sumOfFastest(passes [][]int64) int64 {
	var sum int64
	for _, ns := range fastestPerOp(passes) {
		sum += ns
	}
	return sum
}

// convergeTolerance is how closely a workload's two fastest passes must
// agree before more passes are taken to add nothing.
const convergeTolerance = 0.03

// converged reports whether the two smallest totals agree within
// convergeTolerance of the smaller.
func converged(totals []int64) bool {
	if len(totals) < 2 {
		return false
	}
	s := append([]int64(nil), totals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[1]-s[0]) <= convergeTolerance*float64(s[0])
}

// passRule decides when a workload has been measured enough.
type passRule struct {
	// min and max bound the number of passes; max 0 means no upper bound
	// while a time budget is set.
	min, max int
	// budget is the wall time the passes of one workload may take; with 0
	// the workload stops once its two fastest passes have converged.
	budget time.Duration
}

// unboundedMax caps the passes of a run that has neither a budget nor a
// -max-passes: convergence may never come on a noisy host.
const unboundedMax = 8

func (r passRule) done(totals []int64, elapsed time.Duration) bool {
	n := len(totals)
	max := r.max
	if max == 0 && r.budget == 0 {
		max = unboundedMax
	}
	switch {
	case max > 0 && n >= max:
		return true
	case n < r.min:
		return false
	case r.budget > 0:
		return elapsed >= r.budget
	default:
		return converged(totals)
	}
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// iqrFrac is the distance between the quartiles as a share of the median,
// the spread the acceptance check of BENCHMARK.json is stated in.
func iqrFrac(v []float64) float64 {
	s := sortedCopy(v)
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func durationsNS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}
