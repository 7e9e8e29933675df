package query_test

import (
	"math/rand"
	"testing"

	"sdpopt/internal/query"
	"sdpopt/internal/workload"
)

// FuzzCanonSpelling checks spelling invariance on random inputs: a random
// connected join graph (repeated catalog relations and shared join columns
// included, so tie groups and implied edges arise), respelled by a relation
// permutation and a predicate shuffle and flip, must keep its Encoding
// unless either search was truncated, and every frame's relabelings must
// be mutual inverses.
func FuzzCanonSpelling(f *testing.F) {
	cat := workload.PaperSchema()
	for _, seed := range []int64{1, 2, 3, 42, 1 << 40} {
		for _, n := range []uint8{2, 5, 9, 14} {
			f.Add(seed, n, uint8(4), uint8(3))
		}
	}
	f.Add(int64(7), uint8(8), uint8(1), uint8(1)) // one relation, one column: a self-join clique
	f.Fuzz(func(t *testing.T, seed int64, n, relPool, colPool uint8) {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + int(n)%15
		nrels := 1 + int(relPool)%cat.NumRelations()
		ncols := 1 + int(colPool)%6
		rels := make([]int, size)
		for i := range rels {
			rels[i] = rng.Intn(nrels)
		}
		var preds []query.Pred
		for i := 1; i < size; i++ { // a random spanning tree keeps it connected
			preds = append(preds, query.Pred{LeftRel: i, LeftCol: rng.Intn(ncols), RightRel: rng.Intn(i), RightCol: rng.Intn(ncols)})
		}
		for k := rng.Intn(size); k > 0; k-- {
			if a, b := rng.Intn(size), rng.Intn(size); a != b {
				preds = append(preds, query.Pred{LeftRel: a, LeftCol: rng.Intn(ncols), RightRel: b, RightCol: rng.Intn(ncols)})
			}
		}
		var filters []query.Filter
		for k := rng.Intn(4); k > 0; k-- {
			filters = append(filters, query.Filter{Rel: rng.Intn(size), Col: rng.Intn(24), Bound: 1 + rng.Int63n(4000)})
		}
		var ob *query.OrderSpec
		if rng.Intn(2) == 0 {
			ob = &query.OrderSpec{Rel: rng.Intn(size), Col: rng.Intn(ncols + 2)}
		}
		q, err := query.NewFiltered(cat, rels, preds, filters, ob)
		if err != nil {
			t.Fatalf("generated query rejected: %v", err)
		}
		q2 := permuted(t, q, rng.Perm(size), func(ps []query.Pred) {
			rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
			for i := range ps {
				if rng.Intn(2) == 0 {
					ps[i].LeftRel, ps[i].RightRel = ps[i].RightRel, ps[i].LeftRel
					ps[i].LeftCol, ps[i].RightCol = ps[i].RightCol, ps[i].LeftCol
				}
			}
		})
		a, b := q.Canon(), q2.Canon()
		for _, cn := range []*query.Canon{a, b} {
			for i, to := range cn.RelTo {
				if cn.RelFrom[to] != i {
					t.Fatalf("RelFrom[RelTo[%d]] = %d", i, cn.RelFrom[to])
				}
			}
			for id, to := range cn.EqTo {
				if cn.EqFrom[to] != id {
					t.Fatalf("EqFrom[EqTo[%d]] = %d", id, cn.EqFrom[to])
				}
			}
		}
		if !a.Truncated && !b.Truncated && (a.Encoding != b.Encoding || a.Fingerprint != b.Fingerprint) {
			t.Fatalf("respelling changed the encoding:\n%s\n%s", a.Encoding, b.Encoding)
		}
	})
}
