package query_test

import (
	"slices"
	"sync"
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
// the render arena, 17, 17, 11 and 11; with the canonicalizer's scratch
// pooled, canon is 4 and 4 (the Canon, its relabelings, Encoding and
// Fingerprint). Each ceiling is the latest with about 20 % headroom. Under
// the race detector sync.Pool drops a share of its Puts, so canon read 7-11
// there and keeps the unpooled ceiling.
func TestKeyDerivationAllocs(t *testing.T) {
	qs := testutil.WarmHitMix()
	star12, chain20 := qs[16], qs[32]
	canonLimit := 5.0
	if testutil.Race {
		canonLimit = 20
	}
	for _, c := range []struct {
		name  string
		run   func()
		limit float64
	}{
		{"canon/star-12", func() { query.Recanonicalize(star12) }, canonLimit},
		{"canon/chain-20", func() { query.Recanonicalize(chain20) }, canonLimit},
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

// TestCanonPooledConcurrent canonicalizes the warm-hit population from
// several goroutines at once, so recycled scratch moves between queries of
// different sizes, and checks every frame against the memoized one.
func TestCanonPooledConcurrent(t *testing.T) {
	qs := testutil.WarmHitMix()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range qs {
					q := qs[(i*7+g*13)%len(qs)]
					got, want := query.Recanonicalize(q), q.Canon()
					if got.Encoding != want.Encoding || got.Fingerprint != want.Fingerprint || got.Truncated != want.Truncated ||
						!slices.Equal(got.RelTo, want.RelTo) || !slices.Equal(got.EqTo, want.EqTo) {
						t.Errorf("%s: pooled canonicalization differs from the memoized frame", q.Shape())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
