package main

import (
	"math/rand"
	"sort"
	"time"
)

// arrival is one job of the open-loop generator: when it is due, relative
// to the start of the window, and its grid extent.
type arrival struct {
	due    time.Duration
	extent int
}

// poissonSchedule draws n = round(rate*window) arrivals of a Poisson process
// conditioned on its count: given n arrivals in [0, window), their times are
// n independent uniform draws, sorted.  Exactly round(bigShare*n) of the
// jobs, at seeded random positions, are bigExtent and the rest smallExtent.
// Fixing both counts keeps the offered load from varying with the seed by
// the ±1/sqrt(n) of an unconditioned process, while the gaps stay
// exponential and the order of sizes random.  The same seed gives the same
// schedule.
func poissonSchedule(seed int64, rate float64, window time.Duration, bigShare float64, smallExtent, bigExtent int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate*window.Seconds() + 0.5)
	out := make([]arrival, n)
	for i := range out {
		out[i].due = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].due < out[b].due })
	big := int(bigShare*float64(n) + 0.5)
	for i, j := range rng.Perm(n) {
		out[j].extent = smallExtent
		if i < big {
			out[j].extent = bigExtent
		}
	}
	return out
}
