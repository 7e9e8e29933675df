package cost

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdpopt/internal/plan"
	"sdpopt/internal/query"
)

// The join golden pins what JoinPlans returned before join costing was split
// into cost (AppendJoinCands) and build (BuildJoin): for every connected pair
// of input plans over the fixture query, in both orientations, the exact plan
// trees with bit-level costs and the PlansCosted advance. The testdata file
// was generated at the commit before the split, so a passing run proves the
// split changed no node, no cost bit and no count. Regenerate with:
//
//	go test ./internal/cost -run TestGoldenJoinPlans -update
var updateGolden = flag.Bool("update", false, "rewrite golden testdata from current behavior")

const joinGoldenPath = "testdata/golden_joins.json"

// joinGoldenEntry is one JoinPlans call: how many plans it returned, how far
// PlansCosted advanced, and a digest of the inputs' and the returned plans'
// signatures (the signatures themselves would make the file ~800 KB).
type joinGoldenEntry struct {
	Plans  int    `json:"plans"`
	Costed int64  `json:"costed"`
	Digest string `json:"digest"`
}

// planSig serializes a plan tree canonically, with costs and cardinalities
// as raw float64 bits so any numeric drift fails the comparison.
func planSig(p *plan.Plan) string {
	var b strings.Builder
	var write func(p *plan.Plan)
	write = func(p *plan.Plan) {
		if p == nil {
			b.WriteString("_")
			return
		}
		fmt.Fprintf(&b, "(%d", int(p.Op))
		if p.Op.IsScan() {
			fmt.Fprintf(&b, " r%d", p.Rel)
		}
		fmt.Fprintf(&b, " o%d c%016x n%016x", p.Order, math.Float64bits(p.Cost), math.Float64bits(p.Rows))
		if p.Left != nil || p.Right != nil {
			b.WriteString(" ")
			write(p.Left)
			b.WriteString(" ")
			write(p.Right)
		}
		b.WriteString(")")
	}
	write(p)
	return b.String()
}

// joinCases lists the fixture's join inputs: every connected, disjoint pair
// drawn from the access paths of the four relations and every two-relation
// join of those, in both orientations. The pool covers each operator, merge
// joins whose inputs need zero (A and B both scanned in index order on the
// joined class), one and two sorts, indexed nested loops (an index scan's
// relation inner with its index on the join column), composite inners (no
// indexed nested loop) and ordered outers (an indexed nested loop that
// carries an order).
func joinCases(t *testing.T, m *Model) []JoinInputs {
	t.Helper()
	q := m.Q
	var pool []*plan.Plan
	for i := 0; i < q.NumRelations(); i++ {
		pool = append(pool, m.AccessPaths(i)...)
	}
	pairs := func(ps []*plan.Plan) []JoinInputs {
		var out []JoinInputs
		for _, a := range ps {
			for _, b := range ps {
				if a == b || !a.Rels.Disjoint(b.Rels) || !q.Connected(a.Rels, b.Rels) {
					continue
				}
				out = append(out, JoinInputs{
					Outer: a, Inner: b,
					Preds: q.PredsBetween(a.Rels, b.Rels),
					Rows:  m.SetRows(a.Rels.Union(b.Rels)),
				})
			}
		}
		return out
	}
	for _, in := range pairs(pool) {
		pool = append(pool, m.JoinPlans(in)...)
	}
	return pairs(pool)
}

func collectJoinGolden(t *testing.T) []joinGoldenEntry {
	// Ordering on B.c2 makes A.c1/B.c2's class an interesting order too.
	m := NewModel(fixtureQuery(t, &query.OrderSpec{Rel: 1, Col: 1}), DefaultParams())
	var out []joinGoldenEntry
	for _, in := range joinCases(t, m) {
		before := m.PlansCosted
		plans := m.JoinPlans(in)
		h := sha256.New()
		fmt.Fprintln(h, planSig(in.Outer))
		fmt.Fprintln(h, planSig(in.Inner))
		for _, p := range plans {
			fmt.Fprintln(h, planSig(p))
		}
		out = append(out, joinGoldenEntry{
			Plans:  len(plans),
			Costed: m.PlansCosted - before,
			Digest: hex.EncodeToString(h.Sum(nil)[:8]),
		})
	}
	return out
}

func TestGoldenJoinPlans(t *testing.T) {
	got := collectJoinGolden(t)
	if *updateGolden {
		buf, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		buf = []byte(strings.ReplaceAll(string(buf), "},{", "},\n{")) // one entry per line
		if err := os.MkdirAll(filepath.Dir(joinGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(joinGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), joinGoldenPath)
		return
	}
	buf, err := os.ReadFile(joinGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want []joinGoldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden corpus size changed: got %d entries, want %d", len(got), len(want))
	}
	ops := map[plan.Op]bool{}
	sorts := map[int]bool{}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("golden mismatch at entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// The corpus must actually cover what it claims to pin.
	m := NewModel(fixtureQuery(t, &query.OrderSpec{Rel: 1, Col: 1}), DefaultParams())
	for _, in := range joinCases(t, m) {
		for _, p := range m.JoinPlans(in) {
			ops[p.Op] = true
			if p.Op == plan.MergeJoin {
				n := 0
				if p.Left.Op == plan.Sort && p.Left != in.Outer {
					n++
				}
				if p.Right.Op == plan.Sort && p.Right != in.Inner {
					n++
				}
				sorts[n] = true
			}
		}
	}
	for _, op := range []plan.Op{plan.NestLoop, plan.IndexNestLoop, plan.HashJoin, plan.MergeJoin} {
		if !ops[op] {
			t.Errorf("corpus has no %v", op)
		}
	}
	for n := 0; n <= 2; n++ {
		if !sorts[n] {
			t.Errorf("corpus has no merge join needing %d sorts", n)
		}
	}
}

// TestJoinCandsMatchPlans: costing without building advances PlansCosted
// exactly as costing and building does, every candidate carries the cost and
// order of the plan built from it, and that plan is the one JoinPlans returns
// at the same position.
func TestJoinCandsMatchPlans(t *testing.T) {
	q := fixtureQuery(t, &query.OrderSpec{Rel: 1, Col: 1})
	built, costed := NewModel(q, DefaultParams()), NewModel(q, DefaultParams())
	for n, in := range joinCases(t, built) {
		costed.PlansCosted = built.PlansCosted
		plans := built.JoinPlans(in)
		cands := costed.AppendJoinCands(nil, in)
		if costed.PlansCosted != built.PlansCosted {
			t.Fatalf("case %d: costing alone counted to %d, costing and building to %d", n, costed.PlansCosted, built.PlansCosted)
		}
		if len(cands) != len(plans) {
			t.Fatalf("case %d: %d candidates, %d plans", n, len(cands), len(plans))
		}
		for k, c := range cands {
			p := costed.BuildJoin(c, in.Outer, in.Inner)
			if costed.PlansCosted != built.PlansCosted {
				t.Fatalf("case %d: BuildJoin moved PlansCosted", n)
			}
			if plan.Compare(p, plans[k]) != 0 || planSig(p) != planSig(plans[k]) {
				t.Errorf("case %d candidate %d: built %s, JoinPlans %s", n, k, planSig(p), planSig(plans[k]))
			}
			if math.Float64bits(c.Cost) != math.Float64bits(p.Cost) || c.Order != p.Order || c.Op != p.Op {
				t.Errorf("case %d candidate %d: candidate (%v, %v, order %d) built into (%v, %v, order %d)",
					n, k, c.Op, c.Cost, c.Order, p.Op, p.Cost, p.Order)
			}
		}
	}
}

// TestCheapestJoin: the helper picks what the loop it replaced picked — both
// orientations in order, strict less-than so the first of equal costs wins —
// and counts the same plans costed.
func TestCheapestJoin(t *testing.T) {
	q := fixtureQuery(t, &query.OrderSpec{Rel: 1, Col: 1})
	ref, m := NewModel(q, DefaultParams()), NewModel(q, DefaultParams())
	for n, in := range joinCases(t, ref) {
		m.PlansCosted = ref.PlansCosted
		var want *plan.Plan
		for _, side := range []JoinInputs{in, {Outer: in.Inner, Inner: in.Outer, Preds: in.Preds, Rows: in.Rows}} {
			for _, p := range ref.JoinPlans(side) {
				if want == nil || p.Cost < want.Cost {
					want = p
				}
			}
		}
		got := m.CheapestJoin(in.Outer, in.Inner, in.Preds, in.Rows)
		if planSig(got) != planSig(want) {
			t.Errorf("case %d: CheapestJoin %s, want %s", n, planSig(got), planSig(want))
		}
		if m.PlansCosted != ref.PlansCosted {
			t.Fatalf("case %d: CheapestJoin counted to %d, the loop to %d", n, m.PlansCosted, ref.PlansCosted)
		}
	}
}
