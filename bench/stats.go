package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the least number of samples that must lie beyond a reported
// percentile; with fewer, the percentile is one or two outliers, not a
// property of the distribution.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule. It refuses a quantile with fewer than minBeyond
// samples beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v out of (0,1)", p)
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, n-1-idx, minBeyond)
	}
	return sorted[idx], nil
}

// median returns the middle value of vs (mean of the two middle values for
// an even count) without reordering vs; 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs by the exclusive
// method, the one Python's statistics.quantiles(vs, n=4) uses, so a spread
// computed here equals the one the acceptance procedure computes.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range of vs as a share of its median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}
