// Package jointree provides the left-deep join-tree representation shared
// by the non-DP optimizers (greedy, randomized and genetic search).
//
// The paper's introduction positions these as the alternative family of
// solutions to the search-space problem — approaches that "completely
// jettison the DP approach" — and this repository implements them as
// additional baselines. A solution is a permutation of the query's
// relations whose every prefix is connected in the join graph (no cartesian
// products, matching the DP enumerator's rule); its cost is that of the
// left-deep plan built greedily with the cheapest physical join at each
// step.
package jointree

import (
	"fmt"
	"math/rand"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
)

// Valid reports whether every prefix of the permutation is connected in
// q's join graph (the first element is trivially connected).
func Valid(q *query.Query, perm []int) bool {
	if len(perm) != q.NumRelations() {
		return false
	}
	var covered bits.Set
	for i, r := range perm {
		if r < 0 || r >= q.NumRelations() || covered.Has(r) {
			return false
		}
		if i > 0 && !q.Connected(covered, bits.Single(r)) {
			return false
		}
		covered = covered.Add(r)
	}
	return true
}

// RandomPerm draws a uniform-ish random connected permutation: a random
// start relation, then a uniformly chosen neighbor of the covered set at
// each step.
func RandomPerm(q *query.Query, rng *rand.Rand) []int {
	n := q.NumRelations()
	perm := make([]int, 0, n)
	start := rng.Intn(n)
	perm = append(perm, start)
	covered := bits.Single(start)
	for len(perm) < n {
		nbrs := q.Neighbors(covered).Slice()
		next := nbrs[rng.Intn(len(nbrs))]
		perm = append(perm, next)
		covered = covered.Add(next)
	}
	return perm
}

// Repair reorders perm so that every prefix is connected, preserving the
// original relative order as far as possible: at each step it takes the
// earliest remaining relation adjacent to the covered set. Used by the
// genetic crossover, whose offspring need not be valid.
func Repair(q *query.Query, perm []int) []int {
	n := len(perm)
	out := make([]int, 0, n)
	remaining := append([]int(nil), perm...)
	var covered bits.Set
	for len(out) < n {
		picked := -1
		for i, r := range remaining {
			if len(out) == 0 || q.Connected(covered, bits.Single(r)) {
				picked = i
				break
			}
		}
		if picked < 0 {
			// Disconnected residue cannot happen on connected graphs.
			panic("jointree: repair stuck on a connected graph")
		}
		r := remaining[picked]
		remaining = append(remaining[:picked], remaining[picked+1:]...)
		out = append(out, r)
		covered = covered.Add(r)
	}
	return out
}

// Build constructs the left-deep plan for a valid permutation, choosing
// the cheapest physical join (over both operand orientations) at each
// step, and the cheapest access path for each base relation.
func Build(q *query.Query, m *cost.Model, perm []int) (*plan.Plan, error) {
	if !Valid(q, perm) {
		return nil, fmt.Errorf("jointree: invalid permutation %v", perm)
	}
	cur := cheapestAccess(m, perm[0])
	for _, r := range perm[1:] {
		leaf := cheapestAccess(m, r)
		cur = m.CheapestJoin(cur, leaf, q.PredsBetween(cur.Rels, leaf.Rels), m.SetRows(cur.Rels.Union(leaf.Rels)))
	}
	if q.OrderBy != nil {
		ec := q.OrderEqClass()
		if ec < 0 {
			cur = m.SortPlan(cur, 0)
		} else if cur.Order != ec {
			cur = m.SortPlan(cur, ec)
		}
	}
	return cur, nil
}

func cheapestAccess(m *cost.Model, rel int) *plan.Plan {
	paths := m.AccessPaths(rel)
	best := paths[0]
	for _, p := range paths[1:] {
		if p.Cost < best.Cost {
			best = p
		}
	}
	return best
}

// Neighbor produces a random neighbor of perm under the classic join-tree
// move set — swap two positions or relocate one relation — retrying until
// the result is a valid (prefix-connected) permutation. It never mutates
// perm.
func Neighbor(q *query.Query, perm []int, rng *rand.Rand) []int {
	n := len(perm)
	if n < 2 {
		return append([]int(nil), perm...)
	}
	for attempt := 0; attempt < 16*n; attempt++ {
		out := append([]int(nil), perm...)
		if rng.Intn(2) == 0 {
			i, j := rng.Intn(n), rng.Intn(n)
			out[i], out[j] = out[j], out[i]
		} else {
			i, j := rng.Intn(n), rng.Intn(n)
			r := out[i]
			out = append(out[:i], out[i+1:]...)
			if j > len(out) {
				j = len(out)
			}
			out = append(out[:j], append([]int{r}, out[j:]...)...)
		}
		if Valid(q, out) {
			return out
		}
	}
	// Dense move rejection: fall back to a fresh random solution.
	return RandomPerm(q, rng)
}
