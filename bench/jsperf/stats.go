package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// best is the minimum of xs, 0 when xs is empty.
func best(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// percentile is the linearly interpolated p-quantile (0 ≤ p ≤ 1) of an
// ascending slice, 0 when it is empty.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), because that is the rule the acceptance check applies. It
// needs two values; with fewer all three are the median.
func quartiles(xs []float64) (q1, med, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	med = percentile(asc, 0.5)
	if n < 2 {
		return med, med, med
	}
	at := func(i int) float64 { // i-th of the 3 cut points, 1-based
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return at(1), med, at(3)
}

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// tailPercentile returns the highest percentile not above want that
// still has tailSamples samples beyond it, and its value: p99 of 500
// samples has only 5 beyond it, so p98 is what 500 samples support.
// With 2·tailSamples samples or fewer it falls back to the median.
func tailPercentile(xs []float64, want float64) (p, value float64) {
	asc := sorted(xs)
	p = math.Min(want, 1-float64(tailSamples)/float64(len(asc)))
	if len(asc) == 0 || p < 0.5 {
		p = 0.5
	}
	return p, percentile(asc, p)
}
