// Package skyline computes skylines (maximal vectors) over small numeric
// feature vectors.
//
// SDP prunes join-composite relations by keeping only those on a skyline of
// the feature vector [Rows, Cost, Selectivity] (all minimized). The paper
// assumes "fast techniques for computing skyline functions" from the skyline
// literature; this package provides the standard ones — a linear-scan
// O(n log n) algorithm for two dimensions and block-nested-loop (BNL) for
// general dimension — plus the k-dominant ("strong") skyline the paper's
// future-work section points at.
//
// Dominance is the standard strict form: a dominates b when a is no worse in
// every dimension and strictly better in at least one. Duplicated points do
// not dominate each other, so exact ties all survive. (The paper's formula
// uses non-strict ≤ throughout, which taken literally would let duplicates
// eliminate one another; we use the standard definition.)
package skyline

import "slices"

// Dominates reports whether a dominates b: a[j] ≤ b[j] for every dimension
// and a[j] < b[j] for at least one. Smaller is better in every dimension.
// It panics if the vectors have different lengths.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic("skyline: dimension mismatch")
	}
	strict := false
	for j := range a {
		if a[j] > b[j] {
			return false
		}
		if a[j] < b[j] {
			strict = true
		}
	}
	return strict
}

// BNL computes the skyline with a block-nested-loop over all pairs and
// returns a survivor mask. O(n²) worst case but simple and allocation-light;
// fine for the partition sizes SDP sees.
func BNL(pts [][]float64) []bool {
	out := make([]bool, len(pts))
	for i := range pts {
		out[i] = true
		for j := range pts {
			if j != i && Dominates(pts[j], pts[i]) {
				out[i] = false
				break
			}
		}
	}
	return out
}

// TwoD computes the skyline of two-dimensional points in O(n log n): sweep
// in ascending first coordinate and keep the running minimum of the second.
// It panics if any point is not two-dimensional.
func TwoD(pts [][]float64) []bool {
	n := len(pts)
	idx := make([]int, n)
	for i := range idx {
		if len(pts[i]) != 2 {
			panic("skyline: TwoD requires 2-dimensional points")
		}
		idx[i] = i
	}
	// Sort by (x, y); within equal x, smaller y first.
	slices.SortStableFunc(idx, func(a, b int) int {
		pa, pb := pts[a], pts[b]
		if pa[0] != pb[0] {
			return order(pa[0], pb[0])
		}
		return order(pa[1], pb[1])
	})
	out := make([]bool, n)
	bestY := 0.0
	haveBest := false
	// A point survives unless some point with smaller-or-equal x has
	// strictly smaller y, or equal y with strictly smaller x. Handling ties
	// exactly: group by x; within a group, points with y == groupMinY
	// survive if groupMinY < bestY-so-far OR they tie the global best
	// exactly (duplicates survive).
	i := 0
	for i < n {
		j := i
		x := pts[idx[i]][0]
		for j < n && pts[idx[j]][0] == x {
			j++
		}
		groupMin := pts[idx[i]][1]
		for k := i; k < j; k++ {
			y := pts[idx[k]][1]
			switch {
			case y > groupMin:
				// dominated within the group (same x, larger y)
			case haveBest && y > bestY:
				// dominated by an earlier point (smaller x, smaller y)
			case haveBest && y == bestY:
				// Equal y with strictly larger x: dominated, unless this
				// x-group contains the earlier point's exact duplicate —
				// impossible here since x strictly increased. Dominated.
			default:
				out[idx[k]] = true
			}
		}
		if !haveBest || groupMin < bestY {
			bestY, haveBest = groupMin, true
		}
		i = j
	}
	return out
}

// KDominates reports whether a k-dominates b: a is no worse than b in at
// least k dimensions and strictly better in at least one of those. With
// k = len(a) this reduces to ordinary dominance.
func KDominates(a, b []float64, k int) bool {
	if len(a) != len(b) {
		panic("skyline: dimension mismatch")
	}
	noWorse, strict := 0, false
	for j := range a {
		if a[j] <= b[j] {
			noWorse++
			if a[j] < b[j] {
				strict = true
			}
		}
	}
	return noWorse >= k && strict
}

// KDominant computes the k-dominant ("strong") skyline: points not
// k-dominated by any other point. This is the stronger pruning function the
// paper's conclusion flags as future work. Note that k-dominance is not
// transitive, so the result can be empty even for non-empty input.
func KDominant(pts [][]float64, k int) []bool {
	out := make([]bool, len(pts))
	for i := range pts {
		out[i] = true
		for j := range pts {
			if j != i && KDominates(pts[j], pts[i], k) {
				out[i] = false
				break
			}
		}
	}
	return out
}

// DisjunctivePairwiseMasks computes SDP's Option-2 pruning function: for
// each listed pair of dimensions it computes the 2-D skyline of the projected
// points, and a point survives if it is on at least one of those skylines
// (paper Section 2.1.3, Table 2.2). It returns the survivor mask and each
// pair's projected 2-D skyline mask, in pairs order, from which the
// observability layer reports per-criterion (RC/CS/RS) pruning efficacy.
// Every pair's projection is written into one flat buffer, allocated once.
func DisjunctivePairwiseMasks(pts [][]float64, pairs [][2]int) ([]bool, [][]bool) {
	out := make([]bool, len(pts))
	masks := make([][]bool, len(pairs))
	if len(pts) == 0 {
		return out, masks
	}
	flat := make([]float64, 2*len(pts))
	proj := make([][]float64, len(pts))
	for i := range proj {
		proj[i] = flat[2*i : 2*i+2 : 2*i+2]
	}
	for pi, pr := range pairs {
		for i, p := range pts {
			proj[i][0], proj[i][1] = p[pr[0]], p[pr[1]]
		}
		masks[pi] = TwoD(proj)
		for i, ok := range masks[pi] {
			if ok {
				out[i] = true
			}
		}
	}
	return out, masks
}

// RCSPairs are the attribute pairs of SDP's disjunctive skyline over the
// [Rows, Cost, Selectivity] feature vector: RC, CS and RS.
var RCSPairs = [][2]int{{0, 1}, {1, 2}, {0, 2}}

// RCSNames names RCSPairs in order, for per-criterion reporting.
var RCSNames = []string{"RC", "CS", "RS"}

// order compares x and y for a sort: negative exactly when x < y, as the <
// operator has it (NaN compares equal to everything, where cmp.Compare would
// sort it first).
func order(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}
