package dmda

import (
	"fmt"

	"nccd/internal/datatype"
	"nccd/internal/floatbytes"
	"nccd/internal/petsc"
)

// NaturalCount returns the length of a natural-order global array: every
// grid point in canonical (z, y, x-fastest) order with dof interlaced,
// independent of the decomposition.
func (da *DA) NaturalCount() int {
	return da.n[0] * da.n[1] * da.n[2] * da.dof
}

// naturalIndex returns the natural-order index of cell (i,j,k) component 0.
func (da *DA) naturalIndex(i, j, k int) int {
	return ((k*da.n[1]+j)*da.n[0] + i) * da.dof
}

// NaturalType returns the derived datatype describing this rank's owned box
// as a subarray of the natural-order global array (float64 elements): the
// rank's *file view* for collective checkpoint I/O.  The type's byte
// offsets index the natural array serialized at 8 bytes per value, and its
// flatten order equals the owned box's canonical packed order — exactly the
// layout of the global vector's local array — so the local array IS the
// view's contribution buffer.  Returns nil for a rank with no owned cells
// (inactive on an agglomerated level).
func (da *DA) NaturalType() *datatype.Type {
	b := da.own
	if b.Empty() || da.dof == 0 {
		return nil
	}
	sizes := []int{da.n[2], da.n[1], da.n[0] * da.dof}
	subs := []int{b.Hi[2] - b.Lo[2], b.Hi[1] - b.Lo[1], (b.Hi[0] - b.Lo[0]) * da.dof}
	starts := []int{b.Lo[2], b.Lo[1], b.Lo[0] * da.dof}
	return datatype.Subarray(sizes, subs, starts, datatype.Double)
}

// NaturalSegments returns the flattened byte segments of NaturalType:
// this rank's pieces of the natural-order file domain, ascending and
// coalesced.  Empty for an inactive rank.
func (da *DA) NaturalSegments() []datatype.Segment {
	t := da.NaturalType()
	if t == nil {
		return nil
	}
	return datatype.Flatten(t, 1)
}

// NaturalBytes returns the natural-order file-domain size in bytes.
func (da *DA) NaturalBytes() int64 { return int64(da.NaturalCount()) * 8 }

// naturalRows calls f(nat, local, n) for every contiguous row of box b:
// n values starting at natural index nat, stored at offset local in the
// box's canonical packed order.
func (da *DA) naturalRows(b Box, f func(nat, local, n int)) {
	rowN := (b.Hi[0] - b.Lo[0]) * da.dof
	if rowN <= 0 {
		return
	}
	local := 0
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			f(da.naturalIndex(b.Lo[0], j, k), local, rowN)
			local += rowN
		}
	}
}

// rangeCount returns how many of box b's values fall in natural-index
// range [lo, hi).
func (da *DA) rangeCount(b Box, lo, hi int) int {
	total := 0
	da.naturalRows(b, func(nat, _, n int) {
		total += overlap(nat, n, lo, hi)
	})
	return total
}

// overlap returns the size of the intersection of [nat, nat+n) and [lo, hi).
func overlap(nat, n, lo, hi int) int {
	a, b := nat, nat+n
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if b <= a {
		return 0
	}
	return b - a
}

// GatherNatural gathers the distributed vector g into a replicated
// natural-order array on every rank.  Built on Allgatherv — with
// agglomerated levels some ranks contribute zero values, so the call rides
// the nonuniform-volume path the paper studies — which also means it
// degrades gracefully after rank failures: a dead rank's (empty)
// contribution is skipped and the survivors still obtain the array.  The
// O(global) result suits verification (a decomposition-independent view
// to compare bitwise); checkpoints go through the owned-range file view
// of NaturalSegments instead.  Collective.
func (da *DA) GatherNatural(g *petsc.Vec) []float64 {
	return da.GatherNaturalRange(g, 0, da.NaturalCount())
}

// GatherNaturalRange gathers only the natural-index window [lo, hi) of the
// distributed vector, replicated on every rank.  Each rank contributes just
// its owned values that fall inside the window, so memory and traffic scale
// with the window, not the global array — the accessor that lets callers
// (and the collective I/O fallbacks) stop allocating O(global) per rank.
// Collective; every rank must pass the same window.
func (da *DA) GatherNaturalRange(g *petsc.Vec, lo, hi int) []float64 {
	if lo < 0 || hi < lo || hi > da.NaturalCount() {
		panic(fmt.Sprintf("dmda: natural range [%d,%d) out of bounds", lo, hi))
	}
	if g.LocalSize() != da.OwnedCount() {
		panic("dmda: global vector does not match DA layout")
	}
	size := da.c.Size()
	counts := make([]int, size)
	byteCounts := make([]int, size)
	total := 0
	for r := 0; r < size; r++ {
		counts[r] = da.rangeCount(da.ownedBoxOfRank(r), lo, hi)
		byteCounts[r] = counts[r] * 8
		total += counts[r]
	}

	// Pack this rank's in-window values in row order.
	ga := g.Array()
	send := make([]float64, 0, counts[da.c.Rank()])
	da.naturalRows(da.own, func(nat, local, n int) {
		a, b := nat, nat+n
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			send = append(send, ga[local+a-nat:local+b-nat]...)
		}
	})

	packed := make([]float64, total)
	da.c.Allgatherv(floatbytes.Bytes(send), byteCounts, floatbytes.Bytes(packed))

	// Place every rank's in-window rows into the window array.
	out := make([]float64, hi-lo)
	off := 0
	for r := 0; r < size; r++ {
		da.naturalRows(da.ownedBoxOfRank(r), func(nat, _, n int) {
			a, b := nat, nat+n
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if b > a {
				copy(out[a-lo:b-lo], packed[off:off+b-a])
				off += b - a
			}
		})
	}
	return out
}

// ScatterNaturalRange fills the parts of this rank's portion of g that fall
// in the natural-index window [lo, hi) from a window-sized array (the
// counterpart of GatherNaturalRange).  Values outside the window are left
// untouched.  Purely local.
func (da *DA) ScatterNaturalRange(window []float64, lo, hi int, g *petsc.Vec) {
	if len(window) != hi-lo {
		panic(fmt.Sprintf("dmda: window array %d does not match range [%d,%d)", len(window), lo, hi))
	}
	if g.LocalSize() != da.OwnedCount() {
		panic("dmda: global vector does not match DA layout")
	}
	ga := g.Array()
	da.naturalRows(da.own, func(nat, local, n int) {
		a, b := nat, nat+n
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			copy(ga[local+a-nat:local+b-nat], window[a-lo:b-lo])
		}
	})
}
