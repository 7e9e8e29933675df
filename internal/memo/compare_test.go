package memo

import (
	"reflect"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/testutil"
)

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// indexedChain returns a chain over n relations of the synthetic catalog
// joining each relation's indexed column to a column of the one before, and
// relation 0's indexed column to relation 1's: index scans deliver the joins'
// orders, and indexed nested loops apply.
func indexedChain(n int) *query.Query {
	cat := testutil.Catalog(n)
	rels := make([]int, n)
	var preds []query.Pred
	for r := range rels {
		rels[r] = r
		if r+1 == n {
			break
		}
		lc := cat.Relation(r).IndexCol
		if r > 0 {
			lc = (lc + 1) % len(cat.Relation(r).Cols)
		}
		preds = append(preds, query.Pred{LeftRel: r, LeftCol: lc, RightRel: r + 1, RightCol: cat.Relation(r + 1).IndexCol})
	}
	q, err := query.New(cat, rels, preds, nil)
	if err != nil {
		panic(err)
	}
	return q
}

// compareMemo builds a memo over a 4-relation chain the way the engines fill
// one: relations 0 and 1 as access paths, {2, 3} as an IDP compound leaf
// whose plans are held whole, and {0, 1} from every candidate over its
// halves. It returns the memo, the class pairs tie candidates are drawn for,
// and every plan offered to the compound leaf.
func compareMemo(t *testing.T) (*Memo, [][2]bits.Set, []*plan.Plan) {
	t.Helper()
	q := indexedChain(4)
	model := cost.NewModel(q, cost.DefaultParams())
	m := New(0)
	m.Model = model
	newClass := func(s bits.Set) *Class {
		c, err := m.NewClass(s, s.Len(), model.SetRows(s), 1)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for r := 0; r < 2; r++ {
		c := newClass(bits.Single(r))
		for _, p := range model.AccessPaths(r) {
			if _, err := m.AddPlan(c, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	leaf := newClass(bits.Of(2, 3))
	var leafPlans []*plan.Plan
	for _, o := range model.AccessPaths(2) {
		for _, i := range model.AccessPaths(3) {
			for _, in := range []cost.JoinInputs{{Outer: o, Inner: i}, {Outer: i, Inner: o}} {
				in.Preds, in.Rows = q.PredsBetween(o.Rels, i.Rels), leaf.Rows
				for _, p := range model.JoinPlans(in) {
					leafPlans = append(leafPlans, p)
					if _, err := m.AddPlan(leaf, p); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	ab := newClass(bits.Of(0, 1))
	for _, c := range candidates(m, m.Get(bits.Of(0)), m.Get(bits.Of(1)), ab) {
		if _, err := m.AddCand(ab, c); err != nil {
			t.Fatal(err)
		}
	}
	pairs := [][2]bits.Set{{bits.Of(0), bits.Of(1)}, {bits.Of(1), bits.Of(2, 3)}, {bits.Of(0, 1), bits.Of(2, 3)}}
	for _, pr := range pairs[1:] {
		newClass(pr[0].Union(pr[1]))
	}
	return m, pairs, leafPlans
}

// candidates costs every candidate of classes a and b into cls, both
// orientations, under an open bar: what the kernel offers cls.
func candidates(m *Memo, a, b, cls *Class) []cost.JoinCand {
	var pc cost.PairCoster
	pc.Begin(m.Model, m.Model.Q.PredsBetween(a.Set, b.Set), cls.Rows, a.Width, b.Width)
	var open cost.Bar
	var out []cost.JoinCand
	ins, inb := m.AppendInputs(nil, a), m.AppendInputs(nil, b)
	for k := range ins {
		for j := range inb {
			out = pc.AppendCands(out, &ins[k], &inb[j], false, &open)
			out = pc.AppendCands(out, &inb[j], &ins[k], true, &open)
		}
	}
	return out
}

// TestSlotCompareMatchesCompare: the memo's tie-break walk through slots
// orders two candidates of a class as plan.Compare orders the trees they
// build into. Every candidate of three class pairs — scans × scans,
// scans × an IDP compound leaf's whole plans, joins × that leaf — is
// compared with every other, first as costed, then with every root cost
// flattened to one value, then with the merge inputs' costs flattened too, so
// the structural tests below the roots' costs all run. The corpus must hold
// the ties the walk exists for: merge joins and their mirrors, indexed
// nested loops over one outer (equal trees whatever scan of the probed
// relation they were given), merge joins whose inputs are sorted against
// ones that are not, and candidates over the compound leaf's plans. Last,
// every plan offered to the compound leaf is compared, held whole, with every
// other, as given and with its root cost flattened, so the walk descends into
// plan nodes whose roots tie.
func TestSlotCompareMatchesCompare(t *testing.T) {
	m, pairs, leafPlans := compareMemo(t)
	var mirror, inlEqual, sortMix, compound int
	for _, pr := range pairs {
		a, b := m.Get(pr[0]), m.Get(pr[1])
		cls := m.Get(pr[0].Union(pr[1]))
		cands := candidates(m, a, b, cls)
		for flat := 0; flat < 3; flat++ {
			paths := make([]path, len(cands))
			trees := make([]*plan.Plan, len(cands))
			for k, c := range cands {
				if flat > 0 {
					c.Cost = 1
				}
				if flat > 1 && c.Op == plan.MergeJoin {
					c.OuterCost, c.InnerCost = 1, 1
				}
				paths[k] = path{JoinCand: c, cls: cls.h, id: uint32(k + 1)}
				trees[k] = tree(m, c)
			}
			for x := range paths {
				for y := range paths {
					px, py := &paths[x], &paths[y]
					want := sign(plan.Compare(trees[x], trees[y]))
					if got := sign(m.compare(m.node(px), m.node(py))); got != want {
						t.Fatalf("%v flat=%d: candidates %d (%+v) and %d (%+v) compare %d through slots, %d as trees",
							cls.Set, flat, x, px.JoinCand, y, py.JoinCand, got, want)
					}
					if x == y || px.Cost != py.Cost || px.Op != py.Op {
						continue
					}
					switch {
					case px.Op == plan.MergeJoin && px.Outer == py.Inner && px.Inner == py.Outer && px.Order == py.Order:
						mirror++
					case px.Op == plan.IndexNestLoop && px.Outer == py.Outer && px.Inner != py.Inner && want == 0:
						inlEqual++
					}
					if px.Op == plan.MergeJoin && (trees[x].Left.Op == plan.Sort) != (trees[y].Left.Op == plan.Sort) {
						sortMix++
					}
					if m.paths.at(px.Outer).plan != 0 || m.paths.at(px.Inner).plan != 0 {
						compound++
					}
				}
			}
		}
	}
	leaf := m.Get(bits.Of(2, 3))
	held := 0
	for flat := 0; flat < 2; flat++ {
		paths := make([]path, len(leafPlans))
		trees := make([]*plan.Plan, len(leafPlans))
		for k, p := range leafPlans {
			cp := *p
			if flat > 0 {
				cp.Cost = 1
			}
			m.plans = append(m.plans, &cp)
			paths[k] = path{JoinCand: cost.JoinCand{Op: cp.Op, Cost: cp.Cost, Order: cp.Order}, plan: int32(len(m.plans)), cls: leaf.h}
			trees[k] = &cp
		}
		for x := range paths {
			for y := range paths {
				want := sign(plan.Compare(trees[x], trees[y]))
				if got := sign(m.compare(m.node(&paths[x]), m.node(&paths[y]))); got != want {
					t.Fatalf("leaf plans %d and %d flat=%d compare %d held whole, %d as trees", x, y, flat, got, want)
				}
				if x != y && paths[x].Cost == paths[y].Cost && paths[x].Op == paths[y].Op && paths[x].Order == paths[y].Order {
					held++
				}
			}
		}
	}
	t.Logf("cost ties: %d merge mirrors, %d equal indexed nested loops, %d sorted against unsorted merge inputs, %d over compound leaves, %d between plans held whole",
		mirror, inlEqual, sortMix, compound, held)
	if mirror == 0 || inlEqual == 0 || sortMix == 0 || compound == 0 || held == 0 {
		t.Fatal("the corpus misses a kind of tie the walk must settle")
	}
}

// TestMemoTypesHoldNoPointers: a class and a path are plain values, so the
// arenas holding them are never scanned by the garbage collector and writes
// to them need no write barrier.
func TestMemoTypesHoldNoPointers(t *testing.T) {
	var check func(path string, ty reflect.Type)
	check = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %v", path, ty.Kind())
		case reflect.Array:
			check(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				check(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		}
	}
	check("Class", reflect.TypeOf(Class{}))
	check("path", reflect.TypeOf(path{}))
}
