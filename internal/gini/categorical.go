package gini

import "math/bits"

// MaxSubsetCardinality bounds categorical domains: subsets are represented
// as uint64 bitmasks.
const MaxSubsetCardinality = 64

// exhaustiveSubsetLimit is the largest cardinality for which every subset is
// tried; beyond it a SPRINT-style greedy search is used.
const exhaustiveSubsetLimit = 14

// BestSubsetSplit finds a subset S of category values minimizing
// gini^D(  value in S  vs  value not in S  ). counts[v] is the per-class
// histogram of records with category value v. Small domains are searched
// exhaustively; larger ones greedily (grow S by the single value that most
// reduces the index, keeping the best partition seen — the heuristic SPRINT
// uses for large categorical domains).
//
// ok is false when no non-trivial split exists (fewer than two occupied
// values, or cardinality exceeds MaxSubsetCardinality).
func BestSubsetSplit(counts [][]int) (mask uint64, best float64, ok bool) {
	v := len(counts)
	if v < 2 || v > MaxSubsetCardinality {
		return 0, 0, false
	}
	nc := len(counts[0])
	total := make([]int, nc)
	occupied := 0
	for _, h := range counts {
		nz := false
		for c, n := range h {
			total[c] += n
			if n > 0 {
				nz = true
			}
		}
		if nz {
			occupied++
		}
	}
	if occupied < 2 {
		return 0, 0, false
	}

	if v <= exhaustiveSubsetLimit {
		return exhaustiveSubset(counts, total)
	}
	return greedySubset(counts, total)
}

// exhaustiveSubset returns the subset an ascending scan over every mask
// would pick with a first-strictly-better rule: the lowest mask of minimal
// index. Value 0 stays on the right (complements split identically), and
// values without records are left out of the search, since adding one
// changes no count and only raises the mask. The occupied values are walked
// in Gray-code order, one value moving sides per step, so each candidate
// costs one count update instead of a sum over every value.
func exhaustiveSubset(counts [][]int, total []int) (mask uint64, best float64, ok bool) {
	n := 0
	for _, t := range total {
		n += t
	}
	var buf [MaxSubsetCardinality]int
	vals := buf[:0]
	for val := 1; val < len(counts); val++ {
		for _, k := range counts[val] {
			if k > 0 {
				vals = append(vals, val)
				break
			}
		}
	}
	left := make([]int, len(total))
	nl := 0
	var m uint64
	best = 2.0
	for step := uint64(1); step < 1<<uint(len(vals)); step++ {
		val := vals[bits.TrailingZeros64(step)]
		bit := uint64(1) << uint(val)
		sign := 1
		if m&bit != 0 {
			sign = -1
		}
		m ^= bit
		for c, k := range counts[val] {
			left[c] += sign * k
			nl += sign * k
		}
		if nl == n {
			continue // every record on the left
		}
		if g := SplitBelow(left, total); g < best || (g == best && m < mask) {
			best, mask, ok = g, m, true
		}
	}
	return mask, best, ok
}

func greedySubset(counts [][]int, total []int) (mask uint64, best float64, ok bool) {
	v := len(counts)
	nc := len(total)
	left := make([]int, nc)
	cur := uint64(0)
	best = 2.0
	for round := 0; round < v-1; round++ {
		pickVal := -1
		pickG := 2.0
		for val := 0; val < v; val++ {
			if cur&(1<<uint(val)) != 0 {
				continue
			}
			nz := false
			for c, n := range counts[val] {
				left[c] += n
				if n > 0 {
					nz = true
				}
			}
			if nz {
				// Skip the degenerate all-records-left partition.
				full := true
				for c := range left {
					if left[c] != total[c] {
						full = false
						break
					}
				}
				if !full {
					if g := SplitBelow(left, total); g < pickG {
						pickG, pickVal = g, val
					}
				}
			}
			for c, n := range counts[val] {
				left[c] -= n
			}
		}
		if pickVal == -1 {
			break
		}
		cur |= 1 << uint(pickVal)
		for c, n := range counts[pickVal] {
			left[c] += n
		}
		if pickG < best {
			best, mask, ok = pickG, cur, true
		}
	}
	return mask, best, ok
}
