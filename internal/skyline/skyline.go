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
	for _, p := range pts {
		if len(p) != 2 {
			panic("skyline: TwoD requires 2-dimensional points")
		}
	}
	out := make([]bool, len(pts))
	var s Scratch
	s.twoD(pts, 0, 1, out)
	return out
}

// Scratch holds DisjunctivePairwiseMasks' buffers, for a caller that prunes
// many partitions one after another: the masks it returns are its own
// buffers, valid until its next call. The zero Scratch is ready to use. It
// is not safe for concurrent use.
type Scratch struct {
	out   []bool
	flat  []bool
	masks [][]bool
	idx   []int // twoD's sort order
}

// twoD marks in out, which must be all false, the 2-D skyline of pts
// projected on dimensions x and y.
func (s *Scratch) twoD(pts [][]float64, x, y int, out []bool) {
	n := len(pts)
	s.idx = s.idx[:0]
	for i := range n {
		s.idx = append(s.idx, i)
	}
	idx := s.idx
	// Sort by (x, y); within equal x, smaller y first.
	slices.SortStableFunc(idx, func(a, b int) int {
		pa, pb := pts[a], pts[b]
		if pa[x] != pb[x] {
			return order(pa[x], pb[x])
		}
		return order(pa[y], pb[y])
	})
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
		px := pts[idx[i]][x]
		for j < n && pts[idx[j]][x] == px {
			j++
		}
		groupMin := pts[idx[i]][y]
		for k := i; k < j; k++ {
			py := pts[idx[k]][y]
			switch {
			case py > groupMin:
				// dominated within the group (same x, larger y)
			case haveBest && py > bestY:
				// dominated by an earlier point (smaller x, smaller y)
			case haveBest && py == bestY:
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
}

// cleared returns buf resized to n elements, all zero, reusing its array
// when it is large enough.
func cleared[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
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
func DisjunctivePairwiseMasks(pts [][]float64, pairs [][2]int) ([]bool, [][]bool) {
	var s Scratch
	return s.DisjunctivePairwiseMasks(pts, pairs)
}

// DisjunctivePairwiseMasks is the package's DisjunctivePairwiseMasks into
// s's buffers. Each pair's 2-D skyline is read from the points in place,
// with no projection.
func (s *Scratch) DisjunctivePairwiseMasks(pts [][]float64, pairs [][2]int) ([]bool, [][]bool) {
	n := len(pts)
	s.out = cleared(s.out, n)
	s.flat = cleared(s.flat, n*len(pairs))
	s.masks = s.masks[:0]
	for pi, pr := range pairs {
		mask := s.flat[pi*n : (pi+1)*n : (pi+1)*n]
		s.twoD(pts, pr[0], pr[1], mask)
		s.masks = append(s.masks, mask)
		for i, ok := range mask {
			if ok {
				s.out[i] = true
			}
		}
	}
	return s.out, s.masks
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
