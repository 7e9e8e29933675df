package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/memo"
	"sdpopt/internal/query"
	"sdpopt/internal/skyline"
	"sdpopt/internal/testutil"
	"sdpopt/internal/workload"
)

// oracleClass is a level's created class as the hook received it.
type oracleClass struct {
	set  bits.Set
	fv   memo.FV
	best float64
}

// coverage counts what the reference saw happen, so the test can require
// that the corpus exercises every part of the rule.
type coverage struct {
	levels, free, pruned, multi, rescued, guarded int
}

// referenceSurvivors derives, from the paper's definition (§2.1) and the
// starvation guard, which of a level's created classes survive SDP's
// pruning. prevAlive are the previous level's alive sets. It shares no code
// with the hook: hubs come from the base adjacency, dominance is the O(n²)
// pairwise test.
func referenceSurvivors(q *query.Query, opts Options, level int, created []oracleClass, prevAlive []bits.Set, cov *coverage) []bool {
	survive := make([]bool, len(created))
	for i := range survive {
		survive[i] = true
	}
	n := q.NumRelations()
	if level < 2 || level >= n-2 || len(created) == 0 {
		return survive
	}
	if opts.Scope == Global {
		all := make([]int, len(created))
		for i := range all {
			all[i] = i
		}
		return referenceSkyline(opts.Skyline, created, all)
	}

	// Hub parents: previous-level JCRs with three or more neighbours on the
	// contracted join graph.
	neighbours := func(s bits.Set) bits.Set {
		var nb bits.Set
		s.Each(func(i int) { nb = nb.Union(q.Adjacent(i)) })
		return nb.Diff(s)
	}
	var hubParents []bits.Set
	for _, s := range prevAlive {
		if neighbours(s).Len() >= 3 {
			hubParents = append(hubParents, s)
		}
	}
	var pg []int
	for i, c := range created {
		if slices.ContainsFunc(hubParents, c.set.Contains) {
			pg = append(pg, i)
		}
	}
	if len(pg) == 0 {
		return survive
	}
	cov.levels++
	cov.free += len(created) - len(pg)

	// Hub partitions by label, empty ones skipped.
	parts := map[string][]int{}
	members := func(has func(bits.Set) bool) []int {
		var out []int
		for _, i := range pg {
			if has(created[i].set) {
				out = append(out, i)
			}
		}
		return out
	}
	if opts.Partitioning == ParentHub {
		for _, hp := range hubParents {
			if m := members(func(s bits.Set) bool { return s.Contains(hp) }); len(m) > 0 {
				parts[fmt.Sprintf("hub:%v", hp)] = m
			}
		}
	} else {
		for h := 0; h < n; h++ {
			if q.Adjacent(h).Len() < 3 {
				continue
			}
			if m := members(func(s bits.Set) bool { return s.Has(h) }); len(m) > 0 {
				parts[fmt.Sprintf("hub:%d", h+1)] = m
			}
		}
	}

	// The veto: a PruneGroup JCR survives only if it is on the skyline of
	// every hub partition it is in.
	in := make([]int, len(created))
	for _, part := range parts {
		keep := referenceSkyline(opts.Skyline, created, part)
		for k, i := range part {
			if in[i]++; in[i] == 2 {
				cov.multi++
			}
			if !keep[k] {
				survive[i] = false
			}
		}
	}

	// Order rescue: one partition per relation carrying the ORDER BY's
	// class, of the PruneGroup JCRs without that relation.
	if ec := q.OrderEqClass(); ec >= 0 {
		for r := 0; r < n; r++ {
			carries := false
			for col := range q.Relation(r).Cols {
				carries = carries || q.EqClass(r, col) == ec
			}
			if !carries {
				continue
			}
			part := members(func(s bits.Set) bool { return !s.Has(r) })
			keep := referenceSkyline(opts.Skyline, created, part)
			for k, i := range part {
				if keep[k] && !survive[i] {
					survive[i] = true
					cov.rescued++
				}
			}
		}
	}

	// The starvation guard, partitions in sorted-label order: a partition
	// left empty gets back its cheapest member (the first on ties).
	labels := make([]string, 0, len(parts))
	for l := range parts {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	for _, l := range labels {
		part := parts[l]
		if slices.ContainsFunc(part, func(i int) bool { return survive[i] }) {
			continue
		}
		best := part[0]
		for _, i := range part[1:] {
			if created[i].best < created[best].best {
				best = i
			}
		}
		survive[best] = true
		cov.guarded++
	}
	for _, ok := range survive {
		if !ok {
			cov.pruned++
		}
	}
	return survive
}

// referenceSkyline returns which members of part survive the skyline
// option, by O(n²) dominance: under Option 2 a member survives when no
// other member dominates it on RC, on CS or on RS; under Option 1 when none
// dominates it on all of rows, cost and selectivity.
func referenceSkyline(option SkylineOption, created []oracleClass, part []int) []bool {
	keep := make([]bool, len(part))
	projections := [][]int{{0, 1}, {1, 2}, {0, 2}}
	if option == Option1 {
		projections = [][]int{{0, 1, 2}}
	}
	for _, dims := range projections {
		proj := make([][]float64, len(part))
		for k, i := range part {
			fv := created[i].fv
			p := [3]float64{fv.Rows, fv.Cost, fv.Sel}
			for _, d := range dims {
				proj[k] = append(proj[k], p[d])
			}
		}
		for k := range part {
			dominated := false
			for j := range part {
				if j != k && skyline.Dominates(proj[j], proj[k]) {
					dominated = true
					break
				}
			}
			keep[k] = keep[k] || !dominated
		}
	}
	return keep
}

// oracleQueries returns random connected join graphs of 4–16 relations over
// the paper schema with at least one root hub, unordered and ordered. Graphs
// with more than two edges per relation (the generator's shared join columns
// imply extra edges) are drawn again: in those nearly every relation is a hub,
// so the FreeGroup is empty, and a 16-relation one takes seconds.
func oracleQueries(t *testing.T) (names []string, qs []*query.Query) {
	cat := workload.PaperSchema()
	for size := 4; size <= 16; size++ {
		for _, ordered := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(1000*size) + 43))
			for found := 0; found < 3; {
				q, err := testutil.RandomQuery(cat, rng, size, ordered)
				if err != nil {
					t.Fatalf("size %d: %v", size, err)
				}
				if q.HubRels().Len() == 0 || len(q.Preds) > 2*size {
					continue
				}
				names = append(names, fmt.Sprintf("random-%d/ordered=%v/#%d", size, ordered, found))
				qs = append(qs, q)
				found++
			}
		}
	}
	return names, qs
}

// TestSDPLevelRuleOracle runs SDP's hook inside the DP engine on random join
// graphs and checks, at every level, that the classes it leaves alive are
// exactly those referenceSurvivors derives from the level's created classes
// as the hook received them.
func TestSDPLevelRuleOracle(t *testing.T) {
	configs := []Options{
		{Partitioning: RootHub, Skyline: Option2},
		{Partitioning: ParentHub, Skyline: Option2},
		{Partitioning: RootHub, Skyline: Option2, Scope: Global},
		{Partitioning: RootHub, Skyline: Option1},
		{Partitioning: ParentHub, Skyline: Option1},
	}
	var cov coverage
	names, qs := oracleQueries(t)
	for qi, q := range qs {
		name := names[qi]
		for _, opts := range configs {
			label := fmt.Sprintf("%s/%v/%v/%v", name, opts.Partitioning, opts.Skyline, opts.Scope)
			s := newSDP(q, opts, nil)
			hook := func(level int, m *memo.Memo, created []*memo.Class) error {
				snap := make([]oracleClass, len(created))
				for i, c := range created {
					snap[i] = oracleClass{set: c.Set, fv: c.FeatureVector(), best: c.BestCost()}
				}
				var prev []bits.Set
				for _, c := range m.AppendLevel(nil, level-1) {
					prev = append(prev, c.Set)
				}
				if err := s.hook(level, m, created); err != nil {
					return err
				}
				want := referenceSurvivors(q, opts, level, snap, prev, &cov)
				for i, c := range snap {
					if got := m.Get(c.set) != nil; got != want[i] {
						t.Errorf("%s: level %d: %v survives=%v, reference says %v", label, level, c.set, got, want[i])
					}
				}
				return nil
			}
			e, err := dp.NewEngine(q, dp.BaseLeaves(q), dp.Options{Model: cost.NewModel(q, cost.DefaultParams()), Hook: hook})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := e.Run(q.NumRelations()); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if t.Failed() {
				return
			}
		}
	}
	t.Logf("%+v", cov)
	if cov.free == 0 || cov.pruned == 0 || cov.multi == 0 || cov.rescued == 0 || cov.guarded == 0 {
		t.Fatalf("the corpus leaves part of the rule unexercised: %+v", cov)
	}
}
