package main

import (
	"math"
	"sort"
)

// summary is one reported metric: the median over the samples of a timed
// phase (segments, reps or cells), with the quartiles and sample count the
// harness needs to know its own spread.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method), so the
// harness and the driver agree on what "spread" means. One sample is its
// own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
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
	return cut(1), cut(2), cut(3)
}

func summarize(xs []float64, unit string) summary {
	q1, med, q3 := quartiles(xs)
	return summary{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which it sorts in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// geomean averages ratios-to-a-baseline friendly: cells that differ by
// orders of magnitude (N = 2 against N = 64) weigh the same.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// medianSpread estimates how far the reported median itself moves from run
// to run, as a share of it: the inter-quartile distance of the samples
// shrinks by the square root of their number (for roughly normal samples
// the quartiles of a median of n lie 0.93/sqrt(n) sample-IQRs apart).
// -compare holds it against the metric's bound to tell "same" from
// "cannot tell".
func (s summary) medianSpread() float64 {
	if s.Q3 == s.Q1 || s.N < 1 {
		return 0
	}
	if s.Value == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Value) / math.Sqrt(float64(s.N))
}
