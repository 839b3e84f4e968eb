package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 over 200 samples is the second-largest sample, not
// a tail estimate.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, and false when fewer than minBeyond samples lie
// beyond it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if n-rank < minBeyond {
		return 0, false
	}
	s := sortedCopy(xs)
	return s[rank-1], true
}

// tail returns the highest of p99, p90 and p75 that percentile will
// report for xs, or ok=false if none qualifies.
func tail(xs []float64) (float64, bool) {
	for _, q := range []float64{0.99, 0.9, 0.75} {
		if v, ok := percentile(xs, q); ok {
			return v, true
		}
	}
	return 0, false
}

// median returns the middle of xs (mean of the two middles for even
// lengths); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// outcome is one attempted operation of an open-loop run: its latency
// from when it was due, or a failure (error, wrong output or a refusal).
type outcome struct {
	latency float64 // seconds from due time to completion
	failed  bool
}

// missFrac is the share of attempted operations that failed or took
// longer than limit seconds: a failed or refused operation misses every
// latency limit.
func missFrac(outs []outcome, limit float64) float64 {
	if len(outs) == 0 {
		return 1
	}
	miss := 0
	for _, o := range outs {
		if o.failed || o.latency > limit {
			miss++
		}
	}
	return float64(miss) / float64(len(outs))
}

// latencies returns the latencies of the operations that succeeded.
func latencies(outs []outcome) []float64 {
	xs := make([]float64, 0, len(outs))
	for _, o := range outs {
		if !o.failed {
			xs = append(xs, o.latency)
		}
	}
	return xs
}
