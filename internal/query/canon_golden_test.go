package query_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdpopt/internal/query"
	"sdpopt/internal/workload"
)

// The canonical-form golden file pins every observable of Canon — the
// encoding, its fingerprint, both relation relabelings, the class ranks and
// the truncation flag — over a generated corpus, so a rewrite of the
// canonicalizer that changes any of them (and with them every plan-cache
// key) fails byte-for-byte. Regenerate only for an intended encoding change:
//
//	go test ./internal/query -run TestCanonGolden -update
var updateCanonGolden = flag.Bool("update", false, "rewrite testdata/canon.golden from current behavior")

const canonGoldenPath = "testdata/canon.golden"

type canonCase struct {
	name string
	q    *query.Query
}

// canonCorpus generates the golden corpus: every topology at several sizes,
// each without filters, with filters, ordered on a join column and ordered
// on a non-join column; the paper's 28-relation chain over the 25-relation
// schema (repeated catalog relations, so tie groups); a self-join cycle,
// whose search branches within budget; and a self-join clique, whose
// symmetric labeling search exhausts it.
func canonCorpus(t testing.TB) []canonCase {
	t.Helper()
	cat := workload.PaperSchema()
	var out []canonCase
	add := func(name string, spec workload.Spec, count int, nonJoinOrder bool) {
		qs, err := workload.Instances(spec, count)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, q := range qs {
			if nonJoinOrder {
				q = withNonJoinOrder(t, q)
			}
			out = append(out, canonCase{fmt.Sprintf("%s/%d", name, i), q})
		}
	}
	topos := []workload.Topology{workload.Chain, workload.Star, workload.Cycle, workload.StarChain, workload.Snowflake, workload.Clique}
	for _, topo := range topos {
		for _, n := range []int{5, 9, 14} {
			base := workload.Spec{Cat: cat, Topology: topo, NumRelations: n, Seed: int64(1000*int(topo) + n)}
			name := fmt.Sprintf("%v-%d", topo, n)
			filtered := base
			filtered.FilterFraction = 0.6
			ordered := filtered
			ordered.Ordered = true
			add(name+"/plain", base, 2, false)
			add(name+"/filtered", filtered, 2, false)
			add(name+"/order-join", ordered, 2, false)
			add(name+"/order-nonjoin", filtered, 2, true)
		}
	}
	chain28 := workload.Spec{Cat: cat, Topology: workload.Chain, NumRelations: 28, FilterFraction: 0.3, Ordered: true, Seed: 28}
	add("Chain-28/order-join", chain28, 3, false)
	chain28.Ordered = false
	add("Chain-28/order-nonjoin", chain28, 2, true)
	out = append(out, canonCase{"SelfCycle-6", selfJoin(t, 6, false)})
	out = append(out, canonCase{"SelfClique-8", selfJoin(t, 8, true)})
	return out
}

// withNonJoinOrder rebuilds q with an ORDER BY on relation 0's first column
// that takes part in no join predicate.
func withNonJoinOrder(t testing.TB, q *query.Query) *query.Query {
	t.Helper()
	col := 0
	for q.EqClass(0, col) >= 0 {
		col++
	}
	var preds []query.Pred
	for _, p := range q.Preds {
		if !p.Implied {
			preds = append(preds, p)
		}
	}
	q2, err := query.NewFiltered(q.Cat, q.Rels, preds, q.Filters, &query.OrderSpec{Rel: 0, Col: col})
	if err != nil {
		t.Fatal(err)
	}
	return q2
}

// selfJoin joins n aliases of one catalog relation. As a cycle
// (i.c1 = i+1.c0) every relation is symmetric to every other up to
// rotation and reflection, so the search branches over 2n leaves; as a
// clique on one column it faces n! equal leaves.
func selfJoin(t testing.TB, n int, clique bool) *query.Query {
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

func renderCanonGolden(cases []canonCase) []byte {
	var b bytes.Buffer
	ints := func(xs []int) string { return strings.Trim(fmt.Sprint(xs), "[]") }
	for _, c := range cases {
		cn := c.q.Canon()
		fmt.Fprintf(&b, "%s truncated=%v fp=%s\n", c.name, cn.Truncated, c.q.Fingerprint())
		fmt.Fprintf(&b, "  relto=%s\n  relfrom=%s\n  eqto=%s\n", ints(cn.RelTo), ints(cn.RelFrom), ints(cn.EqTo))
		fmt.Fprintf(&b, "  enc=%s\n", cn.Encoding)
	}
	return b.Bytes()
}

// TestCanonGolden compares the corpus's canonical frames against the
// golden file.
func TestCanonGolden(t *testing.T) {
	cases := canonCorpus(t)
	got := renderCanonGolden(cases)
	if *updateCanonGolden {
		if err := os.MkdirAll(filepath.Dir(canonGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(canonGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d canonical frames to %s", len(cases), canonGoldenPath)
		return
	}
	want, err := os.ReadFile(canonGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("canonical frame changed at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden length changed: got %d lines, want %d", len(gl), len(wl))
}

// TestCanonGoldenCoversTruncation guards the corpus itself: it must keep a
// truncated search and the tie groups of repeated catalog relations, or the
// golden file stops pinning those paths.
func TestCanonGoldenCoversTruncation(t *testing.T) {
	var truncated, repeats bool
	for _, c := range canonCorpus(t) {
		truncated = truncated || c.q.Canon().Truncated
		seen := map[int]bool{}
		for _, r := range c.q.Rels {
			repeats = repeats || seen[r]
			seen[r] = true
		}
	}
	if !truncated || !repeats {
		t.Fatalf("corpus lost coverage: truncated=%v repeated relations=%v", truncated, repeats)
	}
}
