// Package ccp holds the csg-cmp pair conformance tests of the join
// enumerator. A csg-cmp pair (Moerkotte & Neumann, VLDB 2006) is an
// unordered pair of disjoint, individually connected relation sets joined
// by at least one edge; these are exactly the class pairs a bushy DP must
// join. The tests prove that the indexed level walk (memo.Walker, driven
// split by split as dp.Engine drives it) emits every csg-cmp pair of a join
// graph exactly once and nothing else, against a brute-force enumeration of
// all 2ⁿ subsets, and that the engine's pair counters agree. The package has
// no non-test code.
package ccp

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/dp"
	"sdpopt/internal/memo"
	"sdpopt/internal/query"
	"sdpopt/internal/testutil"
)

// Options bounds an enumeration.
type Options struct {
	// MinLevel suppresses pairs whose combined vertex count is ≤ MinLevel
	// (a resumed engine run has already joined them). 0 or 1 emits all.
	MinLevel int
	// MaxLevel suppresses pairs whose combined vertex count exceeds it (the
	// engine's partial-run bound). 0 means no bound.
	MaxLevel int
	// LeftDeep restricts emission to pairs with at least one singleton
	// side, as dp.Options.LeftDeepOnly does.
	LeftDeep bool
}

// Enumerate emits the pairs the indexed level walk joins on the graph adj
// (adj[i] is vertex i's neighbor set), within the level bounds, each in
// min(S1) < min(S2) form. It drives memo.Walker in the engine's order —
// levels ascending, splits (i, k−i) with i ≤ k/2 (only i = 1 when left-deep),
// left classes in creation order, a same-level split cut at a.Seq()+1 — and
// creates each joined set's class at its level, which is all the walk reads.
// A non-nil error from emit aborts the enumeration and is returned
// unchanged.
func Enumerate(adj []bits.Set, opts Options, emit func(s1, s2 bits.Set) error) error {
	n := len(adj)
	maxLevel := opts.MaxLevel
	if maxLevel <= 0 || maxLevel > n {
		maxLevel = n
	}
	m := memo.New(0)
	m.Nbrs = func(s bits.Set) bits.Set {
		var nb bits.Set
		for it := s.Iter(); ; {
			i, ok := it.Next()
			if !ok {
				return nb.Diff(s)
			}
			nb = nb.Union(adj[i])
		}
	}
	for i := 0; i < n; i++ {
		if _, err := m.NewClass(bits.Single(i), 1, 1, 1); err != nil {
			return err
		}
	}
	var w memo.Walker
	for k := 2; k <= maxLevel; k++ {
		maxSplit := k / 2
		if opts.LeftDeep {
			maxSplit = 1
		}
		for i := 1; i <= maxSplit; i++ {
			j := k - i
			for _, a := range m.AppendLevel(nil, i) {
				minSeq := 0
				if j == i {
					minSeq = a.Seq() + 1
				}
				for _, b := range w.Gather(m, a, j, minSeq) {
					set := a.Set.Union(b.Set)
					if m.Get(set) == nil {
						if _, err := m.NewClass(set, k, 1, 1); err != nil {
							return err
						}
					}
					if k <= opts.MinLevel {
						continue
					}
					p := canon(a.Set, b.Set)
					if err := emit(p.s1, p.s2); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// engineQuery builds a query whose join graph is adj, or returns nil when
// adj is not one connected graph of at least two vertices (the engine
// requires its leaves to span a connected set).
func engineQuery(adj []bits.Set) *query.Query {
	n := len(adj)
	if n < 2 || !connected(adj, bits.Full(n)) {
		return nil
	}
	var edges []query.Edge
	for i := range adj {
		for it := adj[i].Iter(); ; {
			j, ok := it.Next()
			if !ok {
				break
			}
			if i < j {
				edges = append(edges, query.Edge{A: i, B: j})
			}
		}
	}
	return testutil.MustQuery(testutil.Catalog(n), n, edges, nil)
}

// checkEngineCounts runs dp.Engine over the graph in the same level window
// (Run(MinLevel) then Run(MaxLevel)) and requires the pairs the window
// joined to be exactly the reference count, all of them considered only
// once: the engine's own pair source against the same brute force.
func checkEngineCounts(t *testing.T, adj []bits.Set, opts Options, want int) {
	t.Helper()
	q := engineQuery(adj)
	if q == nil {
		return
	}
	e, err := dp.NewEngine(q, dp.BaseLeaves(q), dp.Options{LeftDeepOnly: opts.LeftDeep})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	maxLevel := opts.MaxLevel
	if maxLevel <= 0 {
		maxLevel = len(adj)
	}
	if err := e.Run(opts.MinLevel); err != nil {
		t.Fatalf("Run(%d): %v", opts.MinLevel, err)
	}
	before := e.Stats()
	if err := e.Run(maxLevel); err != nil {
		t.Fatalf("Run(%d): %v", maxLevel, err)
	}
	st := e.Stats()
	cons, conn := st.PairsConsidered-before.PairsConsidered, st.PairsConnected-before.PairsConnected
	if conn != int64(want) || cons != conn {
		t.Fatalf("engine joined %d pairs (considered %d), reference has %d", conn, cons, want)
	}
}

// graph builds an adjacency table from an edge list.
func graph(n int, edges [][2]int) []bits.Set {
	adj := make([]bits.Set, n)
	for _, e := range edges {
		adj[e[0]] = adj[e[0]].Add(e[1])
		adj[e[1]] = adj[e[1]].Add(e[0])
	}
	return adj
}

func chainG(n int) []bits.Set {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{i - 1, i})
	}
	return graph(n, edges)
}

func cycleG(n int) []bits.Set {
	adj := chainG(n)
	adj[0] = adj[0].Add(n - 1)
	adj[n-1] = adj[n-1].Add(0)
	return adj
}

func starG(n int) []bits.Set {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return graph(n, edges)
}

func cliqueG(n int) []bits.Set {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return graph(n, edges)
}

// starChainG is a hub with chains hanging off it: hub 0, then (n-1)/2 spokes
// each extended by one more vertex (mirroring the workload's star-chain).
func starChainG(n int) []bits.Set {
	var edges [][2]int
	prev := 0
	for i := 1; i < n; i++ {
		if i%2 == 1 {
			edges = append(edges, [2]int{0, i}) // new spoke off the hub
		} else {
			edges = append(edges, [2]int{prev, i}) // extend the last spoke
		}
		prev = i
	}
	return graph(n, edges)
}

func randG(n int, extra int, rng *rand.Rand) []bits.Set {
	edges := make([][2]int, 0, n-1+extra)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{rng.Intn(i), i}) // random spanning tree
	}
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			if i > j {
				i, j = j, i
			}
			edges = append(edges, [2]int{i, j})
		}
	}
	return graph(n, edges)
}

func connected(adj []bits.Set, s bits.Set) bool {
	if s.IsEmpty() {
		return false
	}
	frontier := bits.Single(s.Min())
	for {
		var next bits.Set
		for it := frontier.Iter(); ; {
			i, ok := it.Next()
			if !ok {
				break
			}
			next = next.Union(adj[i])
		}
		next = next.Intersect(s).Diff(frontier)
		if next.IsEmpty() {
			return frontier == s
		}
		frontier = frontier.Union(next)
	}
}

func linked(adj []bits.Set, a, b bits.Set) bool {
	for it := a.Iter(); ; {
		i, ok := it.Next()
		if !ok {
			return false
		}
		if adj[i].Overlaps(b) {
			return true
		}
	}
}

type pair struct{ s1, s2 bits.Set }

// canon orders an unordered pair by minimum vertex, the form Enumerate
// promises to emit.
func canon(a, b bits.Set) pair {
	if b.Min() < a.Min() {
		a, b = b, a
	}
	return pair{a, b}
}

// refPairs enumerates every csg-cmp pair by brute force: walk all 2^n
// subsets, keep the connected ones, and pair each with every disjoint
// connected set linked to it, filtered by the level bounds. The DPsize
// definition of the search space, independent of Enumerate's internals.
func refPairs(adj []bits.Set, opts Options) map[pair]bool {
	n := len(adj)
	maxLevel := opts.MaxLevel
	if maxLevel <= 0 || maxLevel > n {
		maxLevel = n
	}
	minLevel := opts.MinLevel
	if minLevel < 1 {
		minLevel = 1
	}
	var conn []bits.Set
	for m := 1; m < 1<<n; m++ {
		s := setFromMask(uint(m))
		if s.Len() < maxLevel && connected(adj, s) {
			conn = append(conn, s)
		}
	}
	out := make(map[pair]bool)
	for i, a := range conn {
		for _, b := range conn[i+1:] {
			lv := a.Len() + b.Len()
			if lv <= minLevel || lv > maxLevel {
				continue
			}
			if !a.Disjoint(b) || !linked(adj, a, b) {
				continue
			}
			if opts.LeftDeep && a.Len() > 1 && b.Len() > 1 {
				continue
			}
			out[canon(a, b)] = true
		}
	}
	return out
}

func setFromMask(m uint) bits.Set {
	var s bits.Set
	for i := 0; m != 0; i, m = i+1, m>>1 {
		if m&1 != 0 {
			s = s.Add(i)
		}
	}
	return s
}

func collect(t *testing.T, adj []bits.Set, opts Options) []pair {
	t.Helper()
	var got []pair
	if err := Enumerate(adj, opts, func(s1, s2 bits.Set) error {
		got = append(got, pair{s1, s2})
		return nil
	}); err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	return got
}

// checkAgainstRef asserts the emission is exactly the reference pair set,
// each pair exactly once, in min(S1) < min(S2) form.
func checkAgainstRef(t *testing.T, adj []bits.Set, opts Options) []pair {
	t.Helper()
	got := collect(t, adj, opts)
	want := refPairs(adj, opts)
	seen := make(map[pair]bool, len(got))
	for _, p := range got {
		if p.s1.Min() >= p.s2.Min() {
			t.Fatalf("pair (%v, %v) not in min-vertex order", p.s1, p.s2)
		}
		if seen[p] {
			t.Fatalf("pair (%v, %v) emitted twice", p.s1, p.s2)
		}
		seen[p] = true
		if !want[p] {
			t.Fatalf("pair (%v, %v) emitted but not a csg-cmp pair within bounds", p.s1, p.s2)
		}
	}
	if len(seen) != len(want) {
		missing := make([]pair, 0)
		for p := range want {
			if !seen[p] {
				missing = append(missing, p)
			}
		}
		sort.Slice(missing, func(i, j int) bool { return missing[i].s1.Less(missing[j].s1) })
		t.Fatalf("emitted %d pairs, reference has %d; first missing: %+v", len(seen), len(want), missing[0])
	}
	checkEngineCounts(t, adj, opts, len(want))
	return got
}

var topologies = []struct {
	name  string
	build func(n int) []bits.Set
}{
	{"chain", chainG},
	{"cycle", cycleG},
	{"star", starG},
	{"clique", cliqueG},
	{"starchain", starChainG},
}

// TestEnumerateMatchesReference proves the emission is exactly the csg-cmp
// pair set on every standard topology at widths up to the brute-force limit.
func TestEnumerateMatchesReference(t *testing.T) {
	for _, topo := range topologies {
		for n := 2; n <= 10; n++ {
			t.Run(fmt.Sprintf("%s-%d", topo.name, n), func(t *testing.T) {
				checkAgainstRef(t, topo.build(n), Options{})
			})
		}
	}
}

// TestEnumerateMatchesReferenceRandom drives random connected graphs of
// varying density through the reference check.
func TestEnumerateMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		adj := randG(n, rng.Intn(2*n), rng)
		checkAgainstRef(t, adj, Options{})
	}
}

// TestEnumerateLevelBounds exercises every (MinLevel, MaxLevel) window: the
// bounded emission must equal the reference restricted to that window —
// partial runs and IDP blocks depend on this.
func TestEnumerateLevelBounds(t *testing.T) {
	for _, topo := range topologies {
		n := 8
		adj := topo.build(n)
		for minL := 0; minL <= n; minL++ {
			for maxL := 0; maxL <= n; maxL++ {
				opts := Options{MinLevel: minL, MaxLevel: maxL}
				got := collect(t, adj, opts)
				want := refPairs(adj, opts)
				if len(got) != len(want) {
					t.Fatalf("%s min=%d max=%d: emitted %d pairs, want %d", topo.name, minL, maxL, len(got), len(want))
				}
				for _, p := range got {
					if !want[p] {
						t.Fatalf("%s min=%d max=%d: spurious pair (%v, %v)", topo.name, minL, maxL, p.s1, p.s2)
					}
				}
				checkEngineCounts(t, adj, opts, len(want))
			}
		}
	}
}

// TestEnumerateLeftDeep checks the left-deep restriction against the
// reference (pairs with at least one singleton side).
func TestEnumerateLeftDeep(t *testing.T) {
	for _, topo := range topologies {
		for n := 2; n <= 9; n++ {
			t.Run(fmt.Sprintf("%s-%d", topo.name, n), func(t *testing.T) {
				checkAgainstRef(t, topo.build(n), Options{LeftDeep: true})
			})
		}
	}
}

// TestEmissionOrderFinality machine-checks the invariant dynamic programming
// rests on: when a pair (S1, S2) is emitted, every pair of S1 and every pair
// of S2 (that exists within the bounds) has already been emitted — i.e. both
// sides' DP table entries are final. Checked by replaying the emission and
// verifying each side is either a singleton or a set already "closed": all
// its own pairs seen.
func TestEmissionOrderFinality(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	check := func(t *testing.T, adj []bits.Set, opts Options) {
		t.Helper()
		// pairsOf[s] counts reference pairs composing s (s = s1 ∪ s2).
		want := refPairs(adj, Options{MaxLevel: opts.MaxLevel})
		pairsOf := make(map[bits.Set]int)
		for p := range want {
			pairsOf[p.s1.Union(p.s2)]++
		}
		seenOf := make(map[bits.Set]int)
		if err := Enumerate(adj, opts, func(s1, s2 bits.Set) error {
			for _, side := range []bits.Set{s1, s2} {
				if side.Len() == 1 {
					continue
				}
				if seenOf[side] != pairsOf[side] {
					return fmt.Errorf("pair (%v, %v) emitted while %v is unfinished: %d of %d pairs seen",
						s1, s2, side, seenOf[side], pairsOf[side])
				}
			}
			seenOf[s1.Union(s2)]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, topo := range topologies {
		for n := 2; n <= 10; n++ {
			check(t, topo.build(n), Options{})
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(9)
		check(t, randG(n, rng.Intn(2*n), rng), Options{})
	}
	// Bounded windows: within MaxLevel the same finality must hold.
	for _, topo := range topologies {
		for maxL := 2; maxL <= 8; maxL++ {
			check(t, topo.build(8), Options{MaxLevel: maxL})
		}
	}
}

// TestEnumerateDeterministic asserts identical adjacency yields an identical
// emission sequence.
func TestEnumerateDeterministic(t *testing.T) {
	adj := starChainG(9)
	a := collect(t, adj, Options{})
	b := collect(t, adj, Options{})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("emission %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestEnumerateAbortError: an error from a level hook aborts the engine's
// walk unchanged and at once — Run returns it as is, the hook runs no more,
// and no level above the failing one is joined.
func TestEnumerateAbortError(t *testing.T) {
	q := engineQuery(chainG(6))
	boom := fmt.Errorf("boom")
	calls := 0
	var m *memo.Memo
	e, err := dp.NewEngine(q, dp.BaseLeaves(q), dp.Options{Hook: func(level int, mm *memo.Memo, created []*memo.Class) error {
		calls++
		m = mm
		if calls == 3 {
			return boom
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Run(6); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 3 {
		t.Fatalf("hook ran %d times after abort, want 3", calls)
	}
	if got := len(m.AppendLevel(nil, 4)); got != 0 {
		t.Fatalf("%d classes joined above the aborted level", got)
	}
}

// TestEnumerateCountsKnownClosedForms pins pair counts against the closed
// forms from the DPccp paper: a chain of n relations has (n³−n)/6 csg-cmp
// pairs; a clique has (3ⁿ − 2ⁿ⁺¹ + 1)/2.
func TestEnumerateCountsKnownClosedForms(t *testing.T) {
	for n := 2; n <= 12; n++ {
		got := len(collect(t, chainG(n), Options{}))
		if want := (n*n*n - n) / 6; got != want {
			t.Errorf("chain-%d: %d pairs, want %d", n, got, want)
		}
	}
	pow := func(b, e int) int {
		r := 1
		for i := 0; i < e; i++ {
			r *= b
		}
		return r
	}
	for n := 2; n <= 10; n++ {
		got := len(collect(t, cliqueG(n), Options{}))
		if want := (pow(3, n) - pow(2, n+1) + 1) / 2; got != want {
			t.Errorf("clique-%d: %d pairs, want %d", n, got, want)
		}
	}
}

// TestEnumerateTrivialGraphs covers the degenerate inputs.
func TestEnumerateTrivialGraphs(t *testing.T) {
	for _, adj := range [][]bits.Set{nil, make([]bits.Set, 1), make([]bits.Set, 3)} {
		if got := len(collect(t, adj, Options{})); got != 0 {
			t.Errorf("graph with %d vertices and no edges emitted %d pairs", len(adj), got)
		}
	}
	// Disconnected graph: pairs only within components.
	adj := graph(5, [][2]int{{0, 1}, {2, 3}, {3, 4}})
	checkAgainstRef(t, adj, Options{})
}
