package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

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

// Which way a metric improves.
const (
	lower  = false
	higher = true
)

// bestQuartile reports a timing taken once per segment of a run (a serve
// cycle or burst, one cell of a sweep pass): the lower quartile over the
// segments, or the upper one for a metric where higher is better.
// Contention from other tenants of a shared host only ever slows a segment,
// and it comes and goes within a run, so the worse segments measure the
// host; a change to the program moves every segment, so it moves this
// quartile.
func bestQuartile(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(xs, 0.75)
	}
	return quantile(xs, 0.25)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
