package parse

import (
	"testing"

	"sdpopt/internal/testutil"
)

// BenchmarkParseSQL parses the rendered SQL of the warm-hit population, one
// query per op; the op includes building the query.
func BenchmarkParseSQL(b *testing.B) {
	qs := testutil.WarmHitMix()
	srcs := make([]string, len(qs))
	for i, q := range qs {
		srcs[i] = q.SQL()
	}
	cat := qs[0].Cat
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SQL(cat, srcs[i%len(srcs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseSQLAllocs fences the parser's allocation count, query
// construction included. A token slice grown by append, a map of aliases
// and unsized predicate lists measured 106 (Star-12) and 160 (Chain-20);
// one token slice sized from the input and pre-sized lists measure 15 and
// 15. The ceiling is that plus about 20 %.
func TestParseSQLAllocs(t *testing.T) {
	qs := testutil.WarmHitMix()
	for _, c := range []struct {
		name  string
		idx   int
		limit float64
	}{
		{"star-12", 16, 18},
		{"chain-20", 32, 18},
	} {
		src := qs[c.idx].SQL()
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := SQL(qs[c.idx].Cat, src); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs", c.name, allocs)
		if allocs > c.limit {
			t.Errorf("%s: %.0f allocations, want ≤ %.0f", c.name, allocs, c.limit)
		}
	}
}
