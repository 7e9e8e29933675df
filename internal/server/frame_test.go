package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"testing"

	"sdpopt/internal/plancache"
	"sdpopt/internal/query"
	"sdpopt/internal/tech"
	"sdpopt/internal/testutil"
	"sdpopt/internal/workload"
)

// respell rebuilds q with relation i moved to position perm[i] and every
// predicate written the other way round: the same query, spelled
// differently.
func respell(t *testing.T, q *query.Query, perm []int) *query.Query {
	t.Helper()
	rels := make([]int, len(q.Rels))
	for i, r := range q.Rels {
		rels[perm[i]] = r
	}
	var preds []query.Pred
	for _, p := range q.Preds {
		if !p.Implied {
			preds = append(preds, query.Pred{LeftRel: perm[p.RightRel], LeftCol: p.RightCol, RightRel: perm[p.LeftRel], RightCol: p.LeftCol})
		}
	}
	var filters []query.Filter
	for _, f := range q.Filters {
		filters = append(filters, query.Filter{Rel: perm[f.Rel], Col: f.Col, Bound: f.Bound})
	}
	var ob *query.OrderSpec
	if q.OrderBy != nil {
		ob = &query.OrderSpec{Rel: perm[q.OrderBy.Rel], Col: q.OrderBy.Col}
	}
	q2, err := query.NewFiltered(q.Cat, rels, preds, filters, ob)
	if err != nil {
		t.Fatal(err)
	}
	return q2
}

// rotation returns the permutation that moves relation i of an n-relation
// query to position (n-1-i+k) mod n: reversed, then rotated by k.
func rotation(n, k int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (n - 1 - i + k) % n
	}
	return perm
}

// selfJoin joins n aliases of one catalog relation, as a cycle or as a
// clique on one column — the symmetric queries of the canonical-form golden
// corpus, whose labeling search branches (cycle) or exhausts its budget
// (clique).
func selfJoin(t *testing.T, n int, clique bool) *query.Query {
	t.Helper()
	rels := make([]int, n)
	var preds []query.Pred
	for i := range rels {
		rels[i] = 3
		if !clique {
			preds = append(preds, query.Pred{LeftRel: i, LeftCol: 1, RightRel: (i + 1) % n, RightCol: 0})
			continue
		}
		for j := i + 1; j < n; j++ {
			preds = append(preds, query.Pred{LeftRel: i, LeftCol: 0, RightRel: j, RightCol: 0})
		}
	}
	q, err := query.New(workload.PaperSchema(), rels, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestFrameInvariantRendering is the oracle for serving a hit from the plan
// as cached: for every warm-hit query and a respelling of it, and for the
// self-join cycle and clique, the shape rendered from the canonical-frame
// plan through the requester's RelFrom is byte-identical to the shape of
// the plan relabeled into the requester's frame, and the cost is bitwise
// equal. A spelling whose fingerprint differs from the filler's (possible
// only when the labeling search was truncated) cannot hit its entry and is
// checked against its own.
func TestFrameInvariantRendering(t *testing.T) {
	type tc struct {
		name string
		q    *query.Query
	}
	var cases []tc
	for i, q := range testutil.WarmHitMix() {
		cases = append(cases, tc{fmt.Sprintf("warm-hit/%d", i), q})
	}
	cases = append(cases, tc{"SelfCycle-6", selfJoin(t, 6, false)}, tc{"SelfClique-8", selfJoin(t, 8, true)})
	for i, c := range cases {
		filler := c.q
		p, _, err := tech.Run(context.Background(), tech.Greedy, filler, tech.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fcn := filler.Canon()
		stored := p.Remap(fcn.RelTo, fcn.EqTo)
		want := p.Shape(leafNames(filler, nil))
		for _, req := range []*query.Query{filler, respell(t, filler, rotation(len(filler.Rels), i))} {
			cn := req.Canon()
			from := stored
			if cn.Fingerprint != fcn.Fingerprint {
				if !fcn.Truncated && !cn.Truncated {
					t.Fatalf("%s: respelling changed the fingerprint of an untruncated search", c.name)
				}
				pr, _, err := tech.Run(context.Background(), tech.Greedy, req, tech.Options{})
				if err != nil {
					t.Fatal(err)
				}
				from = pr.Remap(cn.RelTo, cn.EqTo)
			}
			local := from.Remap(cn.RelFrom, cn.EqFrom)
			got, old := from.Shape(leafNames(req, cn)), local.Shape(leafNames(req, nil))
			if got != old {
				t.Errorf("%s: shape through RelFrom\n%s\nwant the relabeled plan's\n%s", c.name, got, old)
			}
			if from == stored && got != want {
				t.Errorf("%s: hit renders\n%s\nwant the filler's\n%s", c.name, got, want)
			}
			if math.Float64bits(from.Cost) != math.Float64bits(local.Cost) {
				t.Errorf("%s: cost %v, relabeled %v", c.name, from.Cost, local.Cost)
			}
		}
	}
}

// specOf writes q as a /optimize query-JSON body.
func specOf(q *query.Query) *QuerySpec {
	spec := &QuerySpec{Rels: q.Rels}
	for _, p := range q.Preds {
		if !p.Implied {
			spec.Preds = append(spec.Preds, PredSpec{LeftRel: p.LeftRel, LeftCol: p.LeftCol, RightRel: p.RightRel, RightCol: p.RightCol})
		}
	}
	for _, f := range q.Filters {
		spec.Filters = append(spec.Filters, FilterSpec{Rel: f.Rel, Col: f.Col, Bound: f.Bound})
	}
	if o := q.OrderBy; o != nil {
		spec.OrderBy = &OrderSpec{Rel: o.Rel, Col: o.Col}
	}
	return spec
}

// TestHitFromOtherSpellingMatchesRemap: spelling B hits the entry spelling
// A filled. B's answer carries A's shape and cost, and B's EXPLAIN is
// exactly the cached plan relabeled into B's frame and explained there.
func TestHitFromOtherSpellingMatchesRemap(t *testing.T) {
	cache := plancache.New(plancache.Options{})
	s, ts := newTestServer(t, Options{Cache: cache})
	ordered, err := workload.Instances(workload.Spec{Cat: s.cat, Topology: workload.StarChain, NumRelations: 9, FilterFraction: 0.5, Ordered: true, Seed: 9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range []*query.Query{testutil.WarmHitMix()[16], ordered[0]} {
		b := respell(t, a, rotation(len(a.Rels), i+2))
		code, filled := postOptimize(t, ts.URL, OptimizeRequest{Query: specOf(a), Technique: tech.Greedy})
		if code != http.StatusOK || filled.Source != "miss" {
			t.Fatalf("spelling A: %d %+v", code, filled)
		}
		code, hit := postOptimize(t, ts.URL, OptimizeRequest{Query: specOf(b), Technique: tech.Greedy, Explain: true})
		if code != http.StatusOK || hit.Source != "hit" {
			t.Fatalf("spelling B: %d %+v", code, hit)
		}
		if hit.Shape != filled.Shape || math.Float64bits(hit.Cost) != math.Float64bits(filled.Cost) {
			t.Errorf("B served %s at %v, A %s at %v", hit.Shape, hit.Cost, filled.Shape, filled.Cost)
		}
		cn := b.Canon()
		stored, _, ok := cache.Get(plancache.Key{Fingerprint: cn.Fingerprint, Technique: tech.Greedy, CatalogVersion: s.catVersion})
		if !ok {
			t.Fatal("entry A filled is missing")
		}
		if want := stored.Remap(cn.RelFrom, cn.EqFrom).Explain(leafNames(b, nil)); hit.Explain != want {
			t.Errorf("B's EXPLAIN\n%s\nwant Remap + Explain\n%s", hit.Explain, want)
		}
	}
}
