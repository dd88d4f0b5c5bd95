// Package benchstats holds the summary statistics the perfbench driver
// reports: medians, quartiles computed the way Python's
// statistics.quantiles(values, n=4) computes them (so the driver's spread
// figures match an outside check of the same samples), and a tail
// percentile that refuses to answer from too few samples.
package benchstats

import (
	"fmt"
	"math"
	"slices"
)

// MinBeyond is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1,000 samples, a p90 at least 100.
const MinBeyond = 10

// Median returns the median of xs (the mean of the two middle values for an
// even count). It returns NaN for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first, second and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4). It needs at
// least two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("benchstats: quartiles need at least 2 samples, got %d", len(xs))
	}
	s := sorted(xs)
	n := len(s)
	const parts = 4
	var q [parts - 1]float64
	for i := 1; i < parts; i++ {
		// Clamp j to [1, n-1] before taking delta, as Python does; for
		// tiny samples delta then leaves [0, parts] and extrapolates.
		j := min(max(i*(n+1)/parts, 1), n-1)
		delta := i*(n+1) - j*parts
		q[i-1] = (s[j-1]*float64(parts-delta) + s[j]*float64(delta)) / parts
	}
	return q[0], q[1], q[2], nil
}

// Spread returns the interquartile range of xs as a share of its median —
// the figure a benchmark bound is compared against.
func Spread(xs []float64) (float64, error) {
	q1, med, q3, err := Quartiles(xs)
	if err != nil {
		return 0, err
	}
	if med == 0 {
		return 0, fmt.Errorf("benchstats: spread of samples with a zero median")
	}
	return (q3 - q1) / math.Abs(med), nil
}

// Percentile returns the nearest-rank p-th percentile of xs (0 < p < 100),
// but only when at least MinBeyond samples lie above its rank; otherwise it
// returns an error naming how many samples the percentile needs. A tail
// figure drawn from a handful of samples reads like a measurement and is
// not one.
func Percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("benchstats: percentile %v outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < MinBeyond {
		need := int(math.Ceil(MinBeyond / (1 - p/100)))
		return 0, fmt.Errorf("benchstats: p%v needs at least %d samples beyond it (%d samples in all), have %d", p, MinBeyond, need, n)
	}
	return sorted(xs)[rank-1], nil
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
