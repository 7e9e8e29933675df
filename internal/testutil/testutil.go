// Package testutil builds deterministic query fixtures shared by the
// optimizer packages' tests.
package testutil

import (
	"fmt"

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
