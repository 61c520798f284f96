package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailCandidates are the percentiles a tail may be reported at, in tenths
// of a percent, highest first.  The set is coarse on purpose: a run whose
// sample count drifts a little must not switch percentile from one run to
// the next.
var tailCandidates = []int{999, 990, 900, 500}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest candidate percentile with at least
// minBeyond of n samples beyond it.  With fewer than 2*minBeyond samples no
// candidate qualifies and the median (50) is returned: the tail of such a
// run is not resolved, and the caller reports the sample count with it.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n*(1000-p)/1000 >= minBeyond {
			return float64(p) / 10
		}
	}
	return 50
}

// tail returns the value at tailPercentile(len(xs)) and that percentile.
func tail(xs []float64) (value, pct float64) {
	pct = tailPercentile(len(xs))
	return quantile(xs, pct/100), pct
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// latencyHist is a lock-free log-linear histogram of durations in
// nanoseconds: 16 sub-buckets per power of two, so a quantile read back from
// it is within about 4% of the exact one.  Concurrent ranks record into it
// without contending on a lock.
type latencyHist struct {
	counts [64 * histSub]atomic.Int64
}

const histSub = 16

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	oct := bits.Len64(uint64(ns)) - 1
	sub := int(uint64(ns)>>(uint(oct)-4)) & (histSub - 1)
	return oct*histSub + sub
}

// histLower is the smallest duration that lands in bucket i.
func histLower(i int) float64 {
	oct, sub := i/histSub, i%histSub
	if oct < 4 {
		return float64(i)
	}
	return float64(uint64(histSub+sub) << uint(oct-4))
}

func (h *latencyHist) record(ns int64) { h.counts[histIndex(ns)].Add(1) }

// quantile returns the p-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it; 0 when nothing was recorded.
func (h *latencyHist) quantile(p float64) float64 {
	total := int64(0)
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	target := p * float64(total)
	seen := int64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(seen+c) >= target {
			lo, hi := histLower(i), histLower(i+1)
			return lo + (hi-lo)*(target-float64(seen))/float64(c)
		}
		seen += c
	}
	return histLower(len(h.counts) - 1)
}
