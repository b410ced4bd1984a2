package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (q in (0, 1]), sorting
// xs in place. A sample of +Inf, which stands for a failed, shed or missing
// ack, ranks above every finite one, so a quantile past the finite share of
// the samples is +Inf. An empty sample gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the median of xs, sorting it in place: the mean of the two
// middle values for an even count. An empty sample gives NaN.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of the time line the intervals cover, counting
// overlaps once; it sorts ivs in place.
func covered(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, curStart, curEnd int64
	open := false
	for _, iv := range ivs {
		if !open || iv.start > curEnd {
			if open {
				total += curEnd - curStart
			}
			curStart, curEnd, open = iv.start, iv.end, true
			continue
		}
		if iv.end > curEnd {
			curEnd = iv.end
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}
