package main

import (
	"math"
	"sort"
)

// dist summarizes one latency sample: its size, median and 99th
// percentile, with how many samples lie beyond each. A percentile is
// only trustworthy with at least ten samples beyond it, so callers
// print the counts next to the value.
type dist struct {
	n        int
	p50, p99 float64
	above99  int
}

// rank returns the nearest-rank q-quantile of sorted (q in (0, 1]):
// the smallest sample with at least q·n samples at or below it, and
// how many samples lie strictly above that rank.
func rank(sorted []float64, q float64) (v float64, above int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1], n - r
}

// summarize sorts xs in place and returns its distribution.
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	d := dist{n: len(xs)}
	d.p50, _ = rank(xs, 0.50)
	d.p99, d.above99 = rank(xs, 0.99)
	return d
}

// median returns the median of xs (the mean of the middle two for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
