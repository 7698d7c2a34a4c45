package main

import (
	"math"
	"sort"
)

// tailMinSamples is the smallest slice for which its tail is the 95th
// percentile: p95 of n samples has ten samples beyond it once n*0.05 > 10,
// i.e. from 220 samples with the nearest-rank rule below.  Smaller slices
// report the 11th-largest sample, the highest rank that still has ten
// samples beyond it.
const tailMinSamples = 220

// sortedCopy returns xs sorted ascending without modifying xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the middle pair for even
// lengths), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs, 0 <= q <= 1, linearly interpolated
// between the two nearest order statistics; it never leaves the range of xs.
// NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// tail returns the benchmark's tail latency of xs: nearest-rank p95 when
// there are at least tailMinSamples samples, the 11th-largest sample for
// 11..219 samples, and the maximum for fewer (the slices of the workloads
// whose ops take hundreds of milliseconds hold two to four).
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n >= tailMinSamples:
		return s[int(math.Ceil(0.95*float64(n)))-1]
	case n >= 11:
		return s[n-11]
	default:
		return s[n-1]
	}
}

// quartiles returns the first and third quartile of xs by the exclusive
// method Python's statistics.quantiles(xs, n=4) uses, which is what the
// acceptance rule for run-to-run spread is written in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-based, clamped to 1..n-1 and linearly
		// interpolated (extrapolated past the clamp, as Python does)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}
