package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile for it
// to be a measurement rather than a restatement of the sample maximum.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of quantile q (0 < q <= 1)
// among n sorted samples: the smallest k with k >= q*n.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// beyond reports how many of n samples lie above the nearest-rank
// q-quantile's position.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// resolvable reports whether n samples give the q-quantile at least
// minBeyond samples above it.
func resolvable(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// dist is a set of timing (or size) samples.
type dist []float64

// sorted returns a sorted copy.
func (d dist) sorted() dist {
	c := append(dist(nil), d...)
	sort.Float64s(c)
	return c
}

// pct returns the nearest-rank q-quantile, or 0 for an empty set.
func (d dist) pct(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	return s[rank(len(s), q)-1]
}

// mean returns the arithmetic mean, or 0 for an empty set.
func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	var s float64
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

// sampleNote renders a q-quantile's sample count and how many samples lie
// beyond it, flagging a tail percentile too thin to resolve.
func sampleNote(n int, q float64) string {
	flag := ""
	if q < 1 && q > 0.5 && !resolvable(n, q) {
		flag = " THIN"
	}
	return fmt.Sprintf("n=%d beyond=%d%s", n, beyond(n, q), flag)
}
