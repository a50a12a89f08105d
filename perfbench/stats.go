package main

import (
	"math"
	"slices"
	"time"
)

// fastQ is the quantile of repeated timings of the same work that
// stands for that work: its fastest tenth. On a shared machine other
// tenants slow whole stretches of a run by 20% or more; a median over
// the run moves with them, the fastest tenth of the repeats does not.
const fastQ = 0.1

// percentile returns the nearest-rank p-quantile of xs (0 for no
// samples). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the 0.5 nearest-rank quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// beyond counts the samples strictly above the p-quantile: the
// percentile is only reported as measured when at least ten lie there.
func beyond(xs []float64, p float64) int {
	q := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

// ratio is a/b, or 0 when the base b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
