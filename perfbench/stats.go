package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: p99 needs 1000 samples, p90 needs 100.
const minBeyond = 10

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p * float64(n) / 100))
	return n - rank
}

// samplesFor is the fewest samples from which percentile reports the p-th
// percentile.
func samplesFor(p float64) int {
	n := int(math.Ceil(minBeyond * 100 / (100 - p)))
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// percentile returns the nearest-rank p-th percentile of sorted (ascending)
// samples. It refuses when fewer than minBeyond samples lie above it, so a
// tail figure always rests on at least ten observations.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if b := beyond(n, p); b < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p, minBeyond, b, n)
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
