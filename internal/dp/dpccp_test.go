package dp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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
// connected pairs. It is the engine's hard invariant across enumerators and
// worker counts. (Peak simulated memory is deliberately excluded: a
// sequential run can transiently retain paths a later candidate of the same
// level displaces, while the staged merge replays only the winners.)
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
// it shows. A hook or Workers > 1 must report "indexed"; an explicit mode is
// reported as asked.
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
		{"workers-2", Options{Workers: 2}, "indexed"},
		{"workers-1", Options{Workers: 1}, "dpccp"},
		{"naive", Options{Enum: EnumNaive}, "naive"},
		{"naive-workers-2", Options{Enum: EnumNaive, Workers: 2}, "naive"},
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
// enumerator finds the pairs and whichever sink takes the plans. The engine
// tracks one resume cursor (done) instead of reading memo levels, so this
// pins that a partial enumeration neither re-joins completed levels
// (PlansCosted would inflate, and a staged drain would collide with the
// classes already in the memo) nor skips pairs (the plan or memo shape would
// diverge).
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
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%v-w%d", enum, workers), func(t *testing.T) {
						run := func(levels ...int) (*plan.Plan, Stats) {
							t.Helper()
							e, err := NewEngine(q, BaseLeaves(q), Options{Enum: enum, Workers: workers})
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
			}
		})
	}
}

// TestJoinKernelSinksAgree runs every class pair that joins into the top
// class of a 6-relation cycle through both sinks of the join kernel —
// straight into a memo class, one pair after another, and into one staged
// class from four workers at once, so under -race the staged admission test
// and offer interleave on the class's mutex — and requires the same retained
// plans, the same retained-path charge (the memo's PathsRetained against the
// staging estimate's path bytes) and the same plans costed: admission decides
// what is offered, never what is costed or kept.
func TestJoinKernelSinksAgree(t *testing.T) {
	const n, workers = 6, 4
	q := testutil.MustQuery(testutil.Catalog(n), n, query.CycleEdges(n), &query.OrderSpec{Rel: 0, Col: 0})
	e, err := NewEngine(q, BaseLeaves(q), Options{Enum: EnumIndexed})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(n - 1); err != nil {
		t.Fatal(err)
	}
	full := bits.Full(n)
	type pair struct{ a, b *memo.Class }
	var pairs []pair
	for i := 1; i <= n/2; i++ {
		for _, a := range e.Memo.Level(i) {
			b := e.Memo.Get(full.Diff(a.Set))
			if b == nil || !q.Connected(a.Set, b.Set) || (i == n-i && !a.Set.Less(b.Set)) {
				continue
			}
			pairs = append(pairs, pair{a, b})
		}
	}
	if len(pairs) < 2*workers {
		t.Fatalf("only %d pairs join into the top class; the staged run would not contend", len(pairs))
	}
	// Workers read only built classes, as at a parallel level's barrier.
	for _, p := range pairs {
		p.a.Paths()
		p.b.Paths()
	}

	// Staged first: the direct run below adds the top class to the memo.
	stage := &staging{table: memo.NewSharded()}
	var next atomic.Int64
	var wg sync.WaitGroup
	forks := make([]*cost.Model, workers)
	errs := make([]error, workers)
	for w := range forks {
		forks[w] = e.Model.Fork()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := &scratch{model: forks[w]}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				if err := stage.join(sc, q, pairs[i].a, pairs[i].b); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var stagedCosted int64
	for w := range forks {
		if errs[w] != nil {
			t.Fatalf("staged join: %v", errs[w])
		}
		stagedCosted += forks[w].PlansCosted
	}

	before, costedBefore := e.Memo.Stats.PathsRetained, e.Model.PlansCosted
	var cls *memo.Class
	for i, p := range pairs {
		var isNew bool
		cls, isNew, err = e.sc.joinDirect(q, e.Memo, p.a, p.b, n)
		if err != nil || isNew != (i == 0) {
			t.Fatalf("joinDirect pair %d: isNew=%v err=%v", i, isNew, err)
		}
	}
	directDelta := e.Memo.Stats.PathsRetained - before
	if directCosted := e.Model.PlansCosted - costedBefore; stagedCosted != directCosted {
		t.Errorf("plans costed: staged %d, direct %d", stagedCosted, directCosted)
	}

	drained := stage.table.Drain()
	if len(drained) != 1 || drained[0].Set != cls.Set {
		t.Fatalf("staged %d classes, want one for %v", len(drained), cls.Set)
	}
	stagedDelta := (stage.simEst.Load() - memo.SimClassBytes) / memo.SimPathBytes
	if stagedDelta != directDelta {
		t.Errorf("retained-path delta: staged %d, direct %d", stagedDelta, directDelta)
	}
	// The staged winners, replayed into a fresh class as the drain does.
	m := memo.New(0)
	m.Model = e.Model
	replay, err := m.NewClass(cls.Set, n, cls.Rows, cls.Sel)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddStaged(replay, drained[0]); err != nil {
		t.Fatal(err)
	}
	want, got := cls.Paths(), replay.Paths()
	if len(want) < 2 {
		t.Fatalf("the top class retained %d paths; the fixture should keep an ordered one too", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("staged retained %d plans, direct %d", len(got), len(want))
	}
	for i := range want {
		if plan.Compare(got[i], want[i]) != 0 || math.Float64bits(got[i].Cost) != math.Float64bits(want[i].Cost) {
			t.Errorf("path %d: staged %+v, direct %+v", i, got[i], want[i])
		}
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
