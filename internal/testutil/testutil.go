// Package testutil builds deterministic query fixtures shared by the
// optimizer packages' tests.
package testutil

import (
	"fmt"
	"math/rand"

	"sdpopt/internal/catalog"
	"sdpopt/internal/query"
	"sdpopt/internal/workload"
)

// Catalog returns a deterministic synthetic catalog with n relations and 24
// columns each, mirroring the paper's schema shape.
func Catalog(n int) *catalog.Catalog {
	cfg := catalog.DefaultConfig()
	cfg.NumRelations = n
	return catalog.MustSynthetic(cfg)
}

// Query builds a query over catalog relations 0..n-1 with one predicate per
// edge. Each relation spends a fresh column on every incident edge, so no
// implied edges arise unless the caller wants them.
func Query(cat *catalog.Catalog, n int, edges []query.Edge, orderBy *query.OrderSpec) (*query.Query, error) {
	rels := make([]int, n)
	for i := range rels {
		rels[i] = i
	}
	used := make([]int, n)
	nextCol := func(rel int) (int, error) {
		c := used[rel]
		if c >= len(cat.Relation(rel).Cols) {
			return 0, fmt.Errorf("testutil: relation %d has too many incident edges", rel)
		}
		used[rel]++
		return c, nil
	}
	preds := make([]query.Pred, len(edges))
	for i, e := range edges {
		lc, err := nextCol(e.A)
		if err != nil {
			return nil, err
		}
		rc, err := nextCol(e.B)
		if err != nil {
			return nil, err
		}
		preds[i] = query.Pred{LeftRel: e.A, LeftCol: lc, RightRel: e.B, RightCol: rc}
	}
	return query.New(cat, rels, preds, orderBy)
}

// MustQuery is Query that panics on error, for fixtures known to be valid.
func MustQuery(cat *catalog.Catalog, n int, edges []query.Edge, orderBy *query.OrderSpec) *query.Query {
	q, err := Query(cat, n, edges, orderBy)
	if err != nil {
		panic(err)
	}
	return q
}

// RandomQuery builds a random connected join graph of size relations drawn
// from cat: a random spanning tree plus up to size−1 random extra edges, each
// predicate on one of the first four columns of its relations, and, when
// ordered, an ORDER BY on a random relation's column. The same rng state
// always yields the same query.
func RandomQuery(cat *catalog.Catalog, rng *rand.Rand, size int, ordered bool) (*query.Query, error) {
	const ncols = 4
	rels := make([]int, size)
	for i := range rels {
		rels[i] = rng.Intn(cat.NumRelations())
	}
	var preds []query.Pred
	for i := 1; i < size; i++ {
		preds = append(preds, query.Pred{LeftRel: i, LeftCol: rng.Intn(ncols), RightRel: rng.Intn(i), RightCol: rng.Intn(ncols)})
	}
	for k := rng.Intn(size); k > 0; k-- {
		if a, b := rng.Intn(size), rng.Intn(size); a != b {
			preds = append(preds, query.Pred{LeftRel: a, LeftCol: rng.Intn(ncols), RightRel: b, RightCol: rng.Intn(ncols)})
		}
	}
	var ob *query.OrderSpec
	if ordered {
		ob = &query.OrderSpec{Rel: rng.Intn(size), Col: rng.Intn(ncols)}
	}
	return query.NewFiltered(cat, rels, preds, nil, ob)
}

// WarmHitMix returns the query population of the benchmark's warm-hit
// workload: 16 instances each of Star-7, Star-12, Chain-20 and
// Star-Chain-15 over the paper schema, generated from the same seeds, so a
// package-level benchmark over it measures the per-request key derivation
// that workload exercises.
func WarmHitMix() []*query.Query {
	const populationSeed = 20070415
	mix := []struct {
		topo workload.Topology
		rels int
	}{{workload.Star, 7}, {workload.Star, 12}, {workload.Chain, 20}, {workload.StarChain, 15}}
	cat := workload.PaperSchema()
	var out []*query.Query
	for mi, m := range mix {
		qs, err := workload.Instances(workload.Spec{
			Cat: cat, Topology: m.topo, NumRelations: m.rels, Seed: populationSeed + int64(mi)*101,
		}, 16)
		if err != nil {
			panic(err)
		}
		out = append(out, qs...)
	}
	return out
}
