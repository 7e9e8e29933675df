package dp

import (
	"math"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/testutil"
)

// sameRun asserts two runs explored the same search and chose the same plan:
// cost to the bit, plans costed, memo shape, end-of-run simulated memory,
// connected pairs. It is the engine's hard invariant across enumerators.
// (Peak simulated memory is deliberately excluded: enumerators that offer
// candidates in different orders transiently retain different paths before
// a later candidate displaces them.)
func sameRun(t *testing.T, label string, pA *plan.Plan, stA Stats, pB *plan.Plan, stB Stats) {
	t.Helper()
	if math.Float64bits(pA.Cost) != math.Float64bits(pB.Cost) {
		t.Errorf("%s: cost %v != %v", label, pA.Cost, pB.Cost)
	}
	if plan.Compare(pA, pB) != 0 {
		t.Errorf("%s: plan shape diverged", label)
	}
	if stA.PlansCosted != stB.PlansCosted {
		t.Errorf("%s: PlansCosted %d != %d", label, stA.PlansCosted, stB.PlansCosted)
	}
	if stA.Memo.ClassesCreated != stB.Memo.ClassesCreated {
		t.Errorf("%s: ClassesCreated %d != %d", label, stA.Memo.ClassesCreated, stB.Memo.ClassesCreated)
	}
	if stA.Memo.PathsRetained != stB.Memo.PathsRetained {
		t.Errorf("%s: PathsRetained %d != %d", label, stA.Memo.PathsRetained, stB.Memo.PathsRetained)
	}
	if stA.Memo.SimBytes != stB.Memo.SimBytes {
		t.Errorf("%s: SimBytes %d != %d", label, stA.Memo.SimBytes, stB.Memo.SimBytes)
	}
	if stA.PairsConnected != stB.PairsConnected {
		t.Errorf("%s: PairsConnected %d != %d", label, stA.PairsConnected, stB.PairsConnected)
	}
}

// walkConsidersOnlyConnected asserts the indexed walk's structural
// guarantee: it gathers only joinable partners, so it never considers a pair
// it then rejects.
func walkConsidersOnlyConnected(t *testing.T, label string, st Stats) {
	t.Helper()
	if st.PairsConsidered != st.PairsConnected {
		t.Errorf("%s: indexed walk considered %d pairs, connected %d", label, st.PairsConsidered, st.PairsConnected)
	}
}

// enumModes names the two pair sources for subtests.
var enumModes = []struct {
	name string
	enum EnumMode
}{{"indexed", EnumIndexed}, {"naive", EnumNaive}}

// TestPartialRunResume: IDP drives the engine in blocks — Run(3) then Run(n)
// must produce exactly the state of a single Run(n), whichever pair source
// finds the pairs. The engine tracks one resume cursor (done) instead of
// reading memo levels, so this pins that a partial enumeration neither
// re-joins completed levels (PlansCosted would inflate) nor skips pairs (the
// plan or memo shape would diverge).
func TestPartialRunResume(t *testing.T) {
	for _, fix := range []struct {
		name  string
		edges []query.Edge
		n     int
	}{
		{"chain-8", query.ChainEdges(8), 8},
		{"star-8", query.StarEdges(8), 8},
	} {
		t.Run(fix.name, func(t *testing.T) {
			q := testutil.MustQuery(testutil.Catalog(fix.n), fix.n, fix.edges, nil)
			for _, mode := range enumModes {
				t.Run(mode.name, func(t *testing.T) {
					run := func(levels ...int) (*plan.Plan, Stats) {
						t.Helper()
						e, err := NewEngine(q, BaseLeaves(q), Options{Enum: mode.enum})
						if err != nil {
							t.Fatal(err)
						}
						for _, lv := range levels {
							if err := e.Run(lv); err != nil {
								t.Fatalf("Run(%d): %v", lv, err)
							}
						}
						p, err := e.Finalize()
						if err != nil {
							t.Fatalf("Finalize: %v", err)
						}
						return p, e.Stats()
					}
					pFull, stFull := run(fix.n)
					pSplit, stSplit := run(3, fix.n)
					sameRun(t, "split-vs-full", pFull, stFull, pSplit, stSplit)
					if stSplit.PairsConsidered != stFull.PairsConsidered {
						t.Errorf("split run considered %d pairs, full %d", stSplit.PairsConsidered, stFull.PairsConsidered)
					}
					// A repeated partial bound is a no-op, not a re-enumeration.
					pIdem, stIdem := run(3, 3, fix.n, fix.n)
					sameRun(t, "idempotent-vs-full", pFull, stFull, pIdem, stIdem)
					if stIdem.PairsConsidered != stFull.PairsConsidered {
						t.Errorf("idempotent run considered %d pairs, full %d", stIdem.PairsConsidered, stFull.PairsConsidered)
					}
				})
			}
		})
	}
}

// TestLeftDeepEnumModesAgree: the LeftDeep restriction bounds the splits
// both pair sources walk; the indexed walk and the naive scan must carve out
// the identical plan space.
func TestLeftDeepEnumModesAgree(t *testing.T) {
	q := testutil.MustQuery(testutil.Catalog(8), 8, query.StarChainEdges(8, 5), nil)
	pIdx, stIdx, err := Optimize(q, Options{LeftDeepOnly: true})
	if err != nil {
		t.Fatalf("indexed: %v", err)
	}
	walkConsidersOnlyConnected(t, "left-deep", stIdx)
	pNaive, stNaive, err := Optimize(q, Options{LeftDeepOnly: true, Enum: EnumNaive})
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	sameRun(t, "leftdeep-indexed-vs-naive", pNaive, stNaive, pIdx, stIdx)
}

// TestCompoundLeavesMatchNaive: with IDP-style compound leaves a level-1
// class covers several relations, so the walk's per-relation bitmaps index a
// class under every relation it holds. The indexed walk over such leaves
// must match the naive scan over the same leaves exactly.
func TestCompoundLeavesMatchNaive(t *testing.T) {
	q := chainQuery(t, 6)
	mkLeaves := func(m *cost.Model) []Leaf {
		a := m.AccessPaths(0)[0]
		b := m.AccessPaths(1)[0]
		in := cost.JoinInputs{Outer: a, Inner: b, Preds: q.PredsBetween(a.Rels, b.Rels),
			Rows: m.JoinRows(a.Rels, b.Rels, a.Rows, b.Rows)}
		compound := m.JoinPlans(in)[0]
		return []Leaf{
			{Set: bits.Of(0, 1), Plans: []*plan.Plan{compound}},
			{Set: bits.Single(2)},
			{Set: bits.Single(3)},
			{Set: bits.Single(4)},
			{Set: bits.Single(5)},
		}
	}
	run := func(opts Options) (*plan.Plan, Stats) {
		t.Helper()
		m := cost.NewModel(q, cost.DefaultParams())
		opts.Model = m
		e, err := NewEngine(q, mkLeaves(m), opts)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if err := e.Run(e.NumLeaves()); err != nil {
			t.Fatalf("Run: %v", err)
		}
		p, err := e.Finalize()
		if err != nil {
			t.Fatalf("Finalize: %v", err)
		}
		return p, e.Stats()
	}
	pIdx, stIdx := run(Options{})
	walkConsidersOnlyConnected(t, "compound", stIdx)
	pNaive, stNaive := run(Options{Enum: EnumNaive})
	sameRun(t, "compound-indexed-vs-naive", pNaive, stNaive, pIdx, stIdx)
}

// TestPairCountsKnownClosedForms pins the pairs a full run joins against the
// closed-form counts of connected-subgraph/connected-complement pairs
// (Moerkotte & Neumann): (n³−n)/6 for a chain, (n−1)·2ⁿ⁻² for a star and
// (3ⁿ−2ⁿ⁺¹+1)/2 for a clique. The indexed walk must consider exactly those
// pairs and no others.
func TestPairCountsKnownClosedForms(t *testing.T) {
	pow := func(b, e int) int64 {
		r := int64(1)
		for i := 0; i < e; i++ {
			r *= int64(b)
		}
		return r
	}
	for _, tc := range []struct {
		name  string
		edges func(int) []query.Edge
		min   int
		max   int
		want  func(n int) int64
	}{
		{"chain", query.ChainEdges, 2, 12, func(n int) int64 { return int64(n*n*n-n) / 6 }},
		{"star", query.StarEdges, 2, 10, func(n int) int64 { return int64(n-1) * pow(2, n-2) }},
		{"clique", query.CliqueEdges, 2, 8, func(n int) int64 { return (pow(3, n) - pow(2, n+1) + 1) / 2 }},
	} {
		for n := tc.min; n <= tc.max; n++ {
			q := testutil.MustQuery(testutil.Catalog(n), n, tc.edges(n), nil)
			_, st, err := Optimize(q, Options{})
			if err != nil {
				t.Fatalf("%s-%d: %v", tc.name, n, err)
			}
			if want := tc.want(n); st.PairsConnected != want {
				t.Errorf("%s-%d: %d connected pairs, want %d", tc.name, n, st.PairsConnected, want)
			}
			walkConsidersOnlyConnected(t, tc.name, st)
		}
	}
}
