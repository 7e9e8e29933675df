package dp

import (
	"math"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/memo"
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

// TestHookFallsBackToIndexed: a level hook needs a completed-level barrier,
// which the barrier-free DPccp emission order cannot provide — runCCP never
// invokes hooks — so NewEngine silently downgrades Enum to the indexed walk
// when a hook is set. The observable contract: under default options a hook
// still fires once per level in ascending order (it would fire zero times if
// the engine stayed on the ccp path), and the hooked run is statistically
// identical to an explicit EnumIndexed run.
func TestHookFallsBackToIndexed(t *testing.T) {
	q := starQuery(t, 8)
	var levels []int
	hook := func(level int, m *memo.Memo, created []*memo.Class) error {
		levels = append(levels, level)
		return nil
	}
	pHook, stHook, err := Optimize(q, Options{Hook: hook})
	if err != nil {
		t.Fatalf("hooked: %v", err)
	}
	if len(levels) != 8 {
		t.Fatalf("hook fired at levels %v, want every level 1..8 — ccp path ignores hooks", levels)
	}
	for i, lv := range levels {
		if lv != i+1 {
			t.Fatalf("hook fired at levels %v, want ascending 1..8", levels)
		}
	}
	pIdx, stIdx, err := Optimize(q, Options{Enum: EnumIndexed})
	if err != nil {
		t.Fatalf("indexed: %v", err)
	}
	sameRun(t, "hooked-vs-indexed", pIdx, stIdx, pHook, stHook)
	if stHook.PairsConsidered != stIdx.PairsConsidered {
		t.Errorf("hooked run considered %d pairs, indexed %d",
			stHook.PairsConsidered, stIdx.PairsConsidered)
	}
}

// TestEnumeratorReported: the DPccp → indexed fallback is silent in the
// results (all modes agree bit for bit), so Stats.Enumerator is the one place
// it shows. A hook must report "indexed"; an explicit mode is reported as
// asked.
func TestEnumeratorReported(t *testing.T) {
	q := starQuery(t, 6)
	nop := func(int, *memo.Memo, []*memo.Class) error { return nil }
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"default", Options{}, "dpccp"},
		{"hooked", Options{Hook: nop}, "indexed"},
		{"naive", Options{Enum: EnumNaive}, "naive"},
	} {
		_, st, err := Optimize(q, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.Enumerator != tc.want {
			t.Errorf("%s: Enumerator = %q, want %q", tc.name, st.Enumerator, tc.want)
		}
	}
}

// TestCCPPartialRunResume: IDP drives the engine in blocks — Run(3) then
// Run(n) must produce exactly the state of a single Run(n), whichever
// enumerator finds the pairs. The engine tracks one resume cursor (done)
// instead of reading memo levels, so this pins that a partial enumeration
// neither re-joins completed levels (PlansCosted would inflate) nor skips
// pairs (the plan or memo shape would diverge).
func TestCCPPartialRunResume(t *testing.T) {
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
			for _, enum := range []EnumMode{EnumDPccp, EnumIndexed, EnumNaive} {
				t.Run(enum.String(), func(t *testing.T) {
					run := func(levels ...int) (*plan.Plan, Stats) {
						t.Helper()
						e, err := NewEngine(q, BaseLeaves(q), Options{Enum: enum})
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

// TestLeftDeepEnumModesAgree: the LeftDeep restriction is implemented three
// times — split bounds in the indexed walk, a filter in the naive loop, and
// complement-growth suppression in DPccp — and all three must carve out the
// identical plan space.
func TestLeftDeepEnumModesAgree(t *testing.T) {
	q := testutil.MustQuery(testutil.Catalog(8), 8, query.StarChainEdges(8, 5), nil)
	pCcp, stCcp, err := Optimize(q, Options{LeftDeepOnly: true})
	if err != nil {
		t.Fatalf("ccp: %v", err)
	}
	if stCcp.PairsConsidered != stCcp.PairsConnected {
		t.Errorf("left-deep ccp considered %d != connected %d", stCcp.PairsConsidered, stCcp.PairsConnected)
	}
	pIdx, stIdx, err := Optimize(q, Options{LeftDeepOnly: true, Enum: EnumIndexed})
	if err != nil {
		t.Fatalf("indexed: %v", err)
	}
	sameRun(t, "leftdeep-ccp-vs-indexed", pIdx, stIdx, pCcp, stCcp)
	pNaive, stNaive, err := Optimize(q, Options{LeftDeepOnly: true, Enum: EnumNaive})
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	sameRun(t, "leftdeep-ccp-vs-naive", pNaive, stNaive, pCcp, stCcp)
}

// TestCCPCompoundLeavesMatchIndexed: with IDP-style compound leaves the
// DPccp adjacency is a contracted graph (one vertex per leaf, edges by
// leaf-set connectivity) and emitted vertex sets are translated back to
// relation sets. The contracted enumeration must match the indexed walk
// over the same leaves exactly.
func TestCCPCompoundLeavesMatchIndexed(t *testing.T) {
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
	pCcp, stCcp := run(Options{})
	if stCcp.PairsConsidered != stCcp.PairsConnected {
		t.Errorf("contracted ccp considered %d != connected %d", stCcp.PairsConsidered, stCcp.PairsConnected)
	}
	pIdx, stIdx := run(Options{Enum: EnumIndexed})
	sameRun(t, "compound-ccp-vs-indexed", pIdx, stIdx, pCcp, stCcp)
}
