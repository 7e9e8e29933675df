package query_test

import (
	"testing"

	"sdpopt/internal/query"
	"sdpopt/internal/testutil"
)

// rebuild constructs q afresh from its user-visible parts, the way a
// request body becomes a query.
func rebuild(q *query.Query) (*query.Query, error) {
	preds := make([]query.Pred, 0, len(q.Preds))
	for _, p := range q.Preds {
		if !p.Implied {
			preds = append(preds, p)
		}
	}
	return query.NewFiltered(q.Cat, q.Rels, preds, q.Filters, q.OrderBy)
}

// BenchmarkCanon canonicalizes the warm-hit population, one query per op.
func BenchmarkCanon(b *testing.B) {
	qs := testutil.WarmHitMix()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		query.Recanonicalize(qs[i%len(qs)])
	}
}

// BenchmarkNewQuery builds the warm-hit population's queries (validation,
// implied-edge closure, indexes), one query per op.
func BenchmarkNewQuery(b *testing.B) {
	qs := testutil.WarmHitMix()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rebuild(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestKeyDerivationAllocs fences the allocation count of the two query
// layers every request with a body pays before the plan cache: building the
// query and canonicalizing it. With map-based closure and string-per-
// signature canonicalization these measured 281 (canon, Star-12), 497
// (canon, Chain-20) and about 85 and 135 (build); with dense column ids and
// the render arena, 17, 17, 11 and 11. Each ceiling is the latter with
// about 20 % headroom.
func TestKeyDerivationAllocs(t *testing.T) {
	qs := testutil.WarmHitMix()
	star12, chain20 := qs[16], qs[32]
	for _, c := range []struct {
		name  string
		run   func()
		limit float64
	}{
		{"canon/star-12", func() { query.Recanonicalize(star12) }, 20},
		{"canon/chain-20", func() { query.Recanonicalize(chain20) }, 20},
		{"new/star-12", func() { rebuild(star12) }, 13},
		{"new/chain-20", func() { rebuild(chain20) }, 13},
	} {
		allocs := testing.AllocsPerRun(20, c.run)
		t.Logf("%s: %.0f allocs", c.name, allocs)
		if allocs > c.limit {
			t.Errorf("%s: %.0f allocations, want ≤ %.0f", c.name, allocs, c.limit)
		}
	}
}
