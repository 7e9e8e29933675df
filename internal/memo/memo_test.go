package memo

import (
	"errors"
	"testing"

	"sdpopt/internal/bits"
	"sdpopt/internal/plan"
)

func mkPlan(set bits.Set, cost float64, order int) *plan.Plan {
	return &plan.Plan{Op: plan.HashJoin, Rels: set, Cost: cost, Rows: 10, Order: order}
}

// mustOrdered returns the retained plan for an order class, or nil.
func mustOrdered(m *Memo, c *Class, order int) *plan.Plan {
	p, _ := m.OrderedPlan(c, order)
	return p
}

func TestNewClassAndGet(t *testing.T) {
	m := New(0)
	s := bits.Of(0, 1)
	c, err := m.NewClass(s, 2, 100, 0.5)
	if err != nil {
		t.Fatalf("NewClass: %v", err)
	}
	if got := m.Get(s); got != c {
		t.Fatal("Get did not return the created class")
	}
	if m.Get(bits.Of(2)) != nil {
		t.Fatal("Get returned a class for an absent set")
	}
	if c.Rows != 100 || c.Sel != 0.5 || c.Level != 2 {
		t.Errorf("class fields = %+v", c)
	}
	if m.Stats.ClassesCreated != 1 || m.Stats.ClassesAlive != 1 {
		t.Errorf("stats = %+v", m.Stats)
	}
}

func TestNewClassRejectsDuplicatesAndEmpty(t *testing.T) {
	m := New(0)
	if _, err := m.NewClass(bits.Set{}, 1, 1, 1); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := m.NewClass(bits.Of(0), 1, 1, 1); err != nil {
		t.Fatalf("NewClass: %v", err)
	}
	if _, err := m.NewClass(bits.Of(0), 1, 1, 1); err == nil {
		t.Error("duplicate set accepted")
	}
}

func TestAddPlanKeepsBestAndOrdered(t *testing.T) {
	m := New(0)
	c, _ := m.NewClass(bits.Of(0, 1), 2, 10, 1)
	s := c.Set

	kept, err := m.AddPlan(c, mkPlan(s, 100, plan.NoOrder))
	if err != nil || !kept {
		t.Fatalf("first plan kept=%v err=%v", kept, err)
	}
	// A cheaper plan replaces Best.
	cheap := mkPlan(s, 50, plan.NoOrder)
	if kept, _ = m.AddPlan(c, cheap); !kept || m.Best(c) != cheap {
		t.Fatal("cheaper plan did not become Best")
	}
	// A costlier unordered plan is discarded.
	if kept, _ = m.AddPlan(c, mkPlan(s, 80, plan.NoOrder)); kept {
		t.Fatal("costlier unordered plan was kept")
	}
	// A costlier ordered plan IS kept: interesting orders are incomparable.
	ord := mkPlan(s, 70, 3)
	if kept, _ = m.AddPlan(c, ord); !kept {
		t.Fatal("ordered plan was not kept")
	}
	if m.Best(c) != cheap {
		t.Fatal("ordered plan displaced Best")
	}
	if n := m.numPaths(c); n != 2 {
		t.Fatalf("%d paths retained, want 2", n)
	}
	// A cheaper plan with the same order replaces the ordered slot.
	ord2 := mkPlan(s, 60, 3)
	if kept, _ = m.AddPlan(c, ord2); !kept || mustOrdered(m, c, 3) != ord2 {
		t.Fatal("cheaper ordered plan did not replace slot")
	}
	if n := m.numPaths(c); n != 2 {
		t.Fatalf("%d paths retained after replacement, want 2", n)
	}
}

func TestAddPlanOrderedBestDedup(t *testing.T) {
	m := New(0)
	c, _ := m.NewClass(bits.Of(0), 1, 10, 1)
	s := c.Set
	// An ordered plan that is also the cheapest overall should count once.
	p := mkPlan(s, 10, 2)
	if _, err := m.AddPlan(c, p); err != nil {
		t.Fatal(err)
	}
	if m.Best(c) != p || mustOrdered(m, c, 2) != p {
		t.Fatal("plan should be both Best and ordered")
	}
	if got := m.numPaths(c); got != 1 {
		t.Fatalf("%d paths retained, want 1", got)
	}
	if m.Stats.PathsRetained != 1 {
		t.Fatalf("PathsRetained = %d, want 1", m.Stats.PathsRetained)
	}
	// A new cheaper ordered plan with the same order supersedes both slots.
	p2 := mkPlan(s, 5, 2)
	if _, err := m.AddPlan(c, p2); err != nil {
		t.Fatal(err)
	}
	if m.Best(c) != p2 || mustOrdered(m, c, 2) != p2 || m.numPaths(c) != 1 {
		t.Fatal("cheaper ordered plan should supersede both slots")
	}
}

func TestBestTakesOverDominatedOrderSlot(t *testing.T) {
	m := New(0)
	c, _ := m.NewClass(bits.Of(0), 1, 10, 1)
	s := c.Set
	expensive := mkPlan(s, 100, 4)
	if _, err := m.AddPlan(c, expensive); err != nil {
		t.Fatal(err)
	}
	// A new Best that itself delivers order 4 makes the expensive ordered
	// path redundant.
	better := mkPlan(s, 20, 4)
	if _, err := m.AddPlan(c, better); err != nil {
		t.Fatal(err)
	}
	if mustOrdered(m, c, 4) != better || len(m.Paths(c)) != 1 {
		t.Fatalf("dominated order slot not superseded: %d paths", len(m.Paths(c)))
	}
}

func TestFeatureVector(t *testing.T) {
	m := New(0)
	c, _ := m.NewClass(bits.Of(0, 1), 2, 1234, 5.6e-7)
	if _, err := m.AddPlan(c, mkPlan(c.Set, 777, plan.NoOrder)); err != nil {
		t.Fatal(err)
	}
	fv := c.FeatureVector()
	if fv.Rows != 1234 || fv.Cost != 777 || fv.Sel != 5.6e-7 {
		t.Errorf("FV = %+v", fv)
	}
}

func TestRemove(t *testing.T) {
	m := New(0)
	c, _ := m.NewClass(bits.Of(0, 1), 2, 10, 1)
	if _, err := m.AddPlan(c, mkPlan(c.Set, 10, plan.NoOrder)); err != nil {
		t.Fatal(err)
	}
	used := m.Stats.SimBytes
	peak := m.Stats.PeakSimBytes
	m.Remove(c)
	if m.Get(c.Set) != nil {
		t.Fatal("removed class still visible")
	}
	if m.Stats.ClassesAlive != 0 || m.Stats.PathsRetained != 0 {
		t.Errorf("stats after remove = %+v", m.Stats)
	}
	if m.Stats.SimBytes != used-SimClassBytes-SimPathBytes {
		t.Errorf("SimBytes = %d", m.Stats.SimBytes)
	}
	if m.Stats.PeakSimBytes != peak {
		t.Error("peak must not decrease on removal")
	}
	m.Remove(c) // idempotent
	if m.Stats.ClassesAlive != 0 {
		t.Error("double remove corrupted stats")
	}
	// The set can be re-created after removal.
	if _, err := m.NewClass(c.Set, 2, 10, 1); err != nil {
		t.Errorf("re-create after remove: %v", err)
	}
}

func TestLevelIterationSkipsDead(t *testing.T) {
	m := New(0)
	a, _ := m.NewClass(bits.Of(0), 1, 1, 1)
	b, _ := m.NewClass(bits.Of(1), 1, 2, 1)
	ab, _ := m.NewClass(bits.Of(0, 1), 2, 3, 1)
	m.Remove(b)
	l1 := m.AppendLevel(nil, 1)
	if len(l1) != 1 || l1[0] != a {
		t.Errorf("AppendLevel(nil, 1) = %v", l1)
	}
	l2 := m.AppendLevel(nil, 2)
	if len(l2) != 1 || l2[0] != ab {
		t.Errorf("AppendLevel(nil, 2) = %v", l2)
	}
	if got := m.AppendLevel(nil, 99); got != nil {
		t.Errorf("AppendLevel(nil, 99) = %v", got)
	}
	if got := m.AppendLevel(l2, 1); len(got) != 2 || got[0] != ab || got[1] != a {
		t.Errorf("AppendLevel([ab], 1) = %v, want [ab a]", got)
	}

}

func TestBudgetExceeded(t *testing.T) {
	m := New(SimClassBytes + SimPathBytes) // room for one class + one path
	c, err := m.NewClass(bits.Of(0), 1, 1, 1)
	if err != nil {
		t.Fatalf("first class: %v", err)
	}
	if _, err := m.AddPlan(c, mkPlan(c.Set, 1, plan.NoOrder)); err != nil {
		t.Fatalf("first plan: %v", err)
	}
	_, err = m.NewClass(bits.Of(1), 1, 1, 1)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	// Ordered extra path also trips the budget.
	m2 := New(SimClassBytes + SimPathBytes)
	c2, _ := m2.NewClass(bits.Of(0), 1, 1, 1)
	if _, err := m2.AddPlan(c2, mkPlan(c2.Set, 5, plan.NoOrder)); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.AddPlan(c2, mkPlan(c2.Set, 9, 1)); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestPeakMB(t *testing.T) {
	s := Stats{PeakSimBytes: 3 << 20}
	if got := s.PeakMB(); got != 3 {
		t.Errorf("PeakMB = %g, want 3", got)
	}
}

func TestPathsDeterministicOrder(t *testing.T) {
	m := New(0)
	c, _ := m.NewClass(bits.Of(0, 1), 2, 10, 1)
	s := c.Set
	for _, p := range []*plan.Plan{
		mkPlan(s, 10, plan.NoOrder),
		mkPlan(s, 30, 5),
		mkPlan(s, 25, 2),
		mkPlan(s, 40, 9),
	} {
		if _, err := m.AddPlan(c, p); err != nil {
			t.Fatal(err)
		}
	}
	paths := m.Paths(c)
	if len(paths) != 4 {
		t.Fatalf("Paths = %d, want 4", len(paths))
	}
	// Best first, then ordered by ascending order class: 2, 5, 9.
	wantOrders := []int{plan.NoOrder, 2, 5, 9}
	for i, p := range paths {
		if p.Order != wantOrders[i] {
			t.Fatalf("paths[%d].Order = %d, want %d", i, p.Order, wantOrders[i])
		}
	}
}
