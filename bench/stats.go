package main

import (
	"math"
	"sort"

	"github.com/ffdl/ffdl/internal/obs"
)

// The benchmark's own arithmetic. Everything here is pure so the unit
// tests pin it without booting a platform.

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted (ascending). An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPermille are the candidate percentiles highestPercentile chooses
// from, in tenths of a percent so the rule is exact integer arithmetic.
var tailPermille = []int{500, 900, 950, 990, 999}

// highestPercentile is the choosing-metrics rule for a tail: the highest
// candidate percentile that still has at least ten samples beyond it.
// With too few samples for even p50 it returns 50.
func highestPercentile(n int) float64 {
	best := tailPermille[0]
	for _, p := range tailPermille {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// sortedCopy returns vs sorted ascending without touching the input.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted sample (mean of the middle pair when even).
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the default "exclusive"
// method), because that is what the driver computes spreads with.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median — the
// steadiness number every bound is calibrated against.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// worseBy reports by what share of base the value cand is worse, given
// the metric's direction; negative means cand is better.
func worseBy(base, cand float64, lowerIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	d := (cand - base) / math.Abs(base)
	if !lowerIsBetter {
		d = -d
	}
	return d
}

// withinBound is the regression rule: cand may be worse than base by at
// most bound (a share of base).
func withinBound(base, cand, bound float64, lowerIsBetter bool) bool {
	return worseBy(base, cand, lowerIsBetter) <= bound
}

// histogramDelta is what a histogram gained between two registry
// snapshots: bucket counts, count and sum subtracted. An instrument
// absent from the earlier snapshot counts from zero; one absent from
// the later snapshot yields an empty point.
func histogramDelta(before, after obs.Snapshot, name string) obs.HistogramPoint {
	a, ok := after.Histogram(name)
	if !ok {
		return obs.HistogramPoint{Name: name}
	}
	d := obs.HistogramPoint{
		Name:   name,
		Bounds: a.Bounds,
		Counts: append([]uint64(nil), a.Counts...),
		Count:  a.Count,
		Sum:    a.Sum,
	}
	b, ok := before.Histogram(name)
	if !ok || len(b.Counts) != len(a.Counts) || b.Count > a.Count {
		return d
	}
	for i := range d.Counts {
		d.Counts[i] -= b.Counts[i]
	}
	d.Count -= b.Count
	d.Sum -= b.Sum
	return d
}

// perJob normalises a latency histogram delta (seconds): operations per
// job and busy microseconds per job.
func perJob(d obs.HistogramPoint, jobs int) (ops, busyUS float64) {
	if jobs <= 0 {
		return 0, 0
	}
	return float64(d.Count) / float64(jobs), d.Sum * 1e6 / float64(jobs)
}

// gaugeDelta subtracts a collector-mirrored cumulative gauge across two
// snapshots.
func gaugeDelta(before, after obs.Snapshot, name string) float64 {
	return float64(after.Gauge(name) - before.Gauge(name))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
