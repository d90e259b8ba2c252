package main

import (
	"fmt"
	"math"
	"sort"
)

// samples is a set of timings or sizes in one unit.
type samples []float64

// sorted returns a sorted copy.
func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of s: the
// smallest sample with at least a q share of the samples at or below it.
// It returns 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	rank := int(math.Ceil(q*float64(len(v)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(v) {
		rank = len(v)
	}
	return v[rank-1]
}

// median is the nearest-rank median.
func (s samples) median() float64 { return s.quantile(0.5) }

// tailLadder lists the tail percentiles a timing may be reported at, highest
// first.
var tailLadder = []float64{0.99999, 0.9999, 0.999, 0.99, 0.9}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailQuantile returns the highest percentile of tailLadder with at least
// minBeyond of n samples beyond it, or 0.5 when n is too small for any.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= minBeyond-1e-9 {
			return q
		}
	}
	return 0.5
}

// hasTail reports whether n samples support a tail percentile of q.
func hasTail(n int, q float64) bool { return float64(n)*(1-q) >= minBeyond-1e-9 }

// summary formats s by the reporting rule: the median, the highest tail
// percentile with at least minBeyond samples beyond it, and the sample count.
func (s samples) summary(unit string) string {
	q := tailQuantile(len(s))
	return fmt.Sprintf("p50=%.4g%s p%s=%.4g%s (n=%d)", s.median(), unit,
		percentLabel(q), s.quantile(q), unit, len(s))
}

// percentLabel renders 0.999 as "99.9".
func percentLabel(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1e5)/1e3)
}

// geomean is the geometric mean of positive values; it returns 0 when xs is
// empty or holds a value <= 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
