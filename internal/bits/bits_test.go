package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingle(t *testing.T) {
	for i := 0; i < MaxRelations; i++ {
		s := Single(i)
		if s.Len() != 1 {
			t.Fatalf("Single(%d).Len() = %d, want 1", i, s.Len())
		}
		if !s.Has(i) {
			t.Fatalf("Single(%d) does not contain %d", i, i)
		}
	}
}

func TestSingleOutOfRangePanics(t *testing.T) {
	for _, i := range []int{-1, MaxRelations, MaxRelations + 36} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Single(%d) did not panic", i)
				}
			}()
			Single(i)
		}()
	}
}

func TestOf(t *testing.T) {
	// Members on both sides of the word boundary.
	s := Of(0, 2, 5, 63, 64, 100)
	if got, want := s.Len(), 6; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for _, i := range []int{0, 2, 5, 63, 64, 100} {
		if !s.Has(i) {
			t.Errorf("set missing %d", i)
		}
	}
	for _, i := range []int{1, 3, 4, 6, 62, 65, 99, 101, 127} {
		if s.Has(i) {
			t.Errorf("set wrongly contains %d", i)
		}
	}
}

func TestFull(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{{0, 0}, {1, 1}, {5, 5}, {63, 63}, {64, 64}, {65, 65}, {127, 127}, {128, 128}}
	for _, c := range cases {
		f := Full(c.n)
		if got := f.Len(); got != c.want {
			t.Errorf("Full(%d).Len() = %d, want %d", c.n, got, c.want)
		}
		if c.n > 0 && (f.Min() != 0 || f.Max() != c.n-1) {
			t.Errorf("Full(%d) spans [%d,%d], want [0,%d]", c.n, f.Min(), f.Max(), c.n-1)
		}
		if c.n < MaxRelations && f.Has(c.n) {
			t.Errorf("Full(%d) contains %d", c.n, c.n)
		}
	}
}

func TestFullOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Full(%d) did not panic", MaxRelations+1)
		}
	}()
	Full(MaxRelations + 1)
}

func TestAddRemove(t *testing.T) {
	s := Set{}
	s = s.Add(3).Add(7).Add(3).Add(80).Add(80)
	if got := s.Len(); got != 3 {
		t.Fatalf("Len after adds = %d, want 3", got)
	}
	s = s.Remove(3)
	if s.Has(3) || !s.Has(7) || !s.Has(80) {
		t.Fatalf("after Remove(3): %v", s)
	}
	s = s.Remove(3) // removing an absent element is a no-op
	if got := s.Len(); got != 2 {
		t.Fatalf("Len after double remove = %d, want 2", got)
	}
	s = s.Remove(80)
	if s.Has(80) || s.Len() != 1 {
		t.Fatalf("after Remove(80): %v", s)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Of(0, 1, 2, 64)
	b := Of(2, 3, 64, 65)
	if got, want := a.Union(b), Of(0, 1, 2, 3, 64, 65); got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got, want := a.Intersect(b), Of(2, 64); got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Diff(b), Of(0, 1); got != want {
		t.Errorf("Diff = %v, want %v", got, want)
	}
	if !a.Overlaps(b) || a.Disjoint(b) {
		t.Error("a and b should overlap")
	}
	c := Of(4, 5, 90)
	if a.Overlaps(c) || !a.Disjoint(c) {
		t.Error("a and c should be disjoint")
	}
	if !a.Contains(Of(0, 2, 64)) || a.Contains(b) {
		t.Error("Contains misbehaves")
	}
	// Cross-word-only overlap: low words disjoint, high words share a bit.
	d, e := Of(1, 100), Of(2, 100)
	if !d.Overlaps(e) || d.Disjoint(e) {
		t.Error("cross-word overlap missed")
	}
}

func TestMinMax(t *testing.T) {
	cases := []struct {
		s        Set
		min, max int
	}{
		{Of(3, 10, 41), 3, 41},
		{Of(63), 63, 63},
		{Of(64), 64, 64},
		{Of(63, 64), 63, 64},
		{Of(5, 127), 5, 127},
		{Of(70, 127), 70, 127},
	}
	for _, c := range cases {
		if got := c.s.Min(); got != c.min {
			t.Errorf("%v.Min() = %d, want %d", c.s, got, c.min)
		}
		if got := c.s.Max(); got != c.max {
			t.Errorf("%v.Max() = %d, want %d", c.s, got, c.max)
		}
	}
}

func TestMinMaxEmptyPanics(t *testing.T) {
	for name, fn := range map[string]func(Set) int{"Min": Set.Min, "Max": Set.Max} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of empty set did not panic", name)
				}
			}()
			fn(Set{})
		}()
	}
}

func TestEachAndSlice(t *testing.T) {
	s := Of(5, 1, 9, 64, 63, 127)
	want := []int{1, 5, 9, 63, 64, 127}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestLessCompareOrder(t *testing.T) {
	// Canonical numeric order: word 1 is the high word. Sets confined to
	// the first 64 relations order exactly as the historical uint64 did.
	ordered := []Set{
		{},
		Of(0),
		Of(1),
		Of(0, 1),
		Of(63),
		Of(0, 63),
		Of(64),     // any high-word bit outranks every low-word-only set
		Of(63, 64), // ...and the low word breaks ties
		Of(65),
		Of(127),
	}
	for i := range ordered {
		for j := range ordered {
			wantLess := i < j
			if got := ordered[i].Less(ordered[j]); got != wantLess {
				t.Errorf("%v.Less(%v) = %v, want %v", ordered[i], ordered[j], got, wantLess)
			}
			wantCmp := 0
			if i < j {
				wantCmp = -1
			} else if i > j {
				wantCmp = 1
			}
			if got := ordered[i].Compare(ordered[j]); got != wantCmp {
				t.Errorf("%v.Compare(%v) = %d, want %d", ordered[i], ordered[j], got, wantCmp)
			}
		}
	}
}

func TestFromWords(t *testing.T) {
	s := FromWords(1<<5|1<<63, 1<<0|1<<63)
	if got, want := s, Of(5, 63, 64, 127); got != want {
		t.Fatalf("FromWords = %v, want %v", got, want)
	}
	if got, want := FromWords(7), Of(0, 1, 2); got != want {
		t.Fatalf("FromWords(7) = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("FromWords with too many words did not panic")
		}
	}()
	FromWords(1, 2, 3)
}

// randomSet draws a set with popcount ≤ maxLen whose members spread across
// the whole 128-bit range, biased to hit the word-boundary bits.
func randomSet(rng *rand.Rand, maxLen int) Set {
	boundary := []int{0, 62, 63, 64, 65, 126, 127}
	var s Set
	n := 1 + rng.Intn(maxLen)
	for s.Len() < n {
		if rng.Intn(3) == 0 {
			s = s.Add(boundary[rng.Intn(len(boundary))])
		} else {
			s = s.Add(rng.Intn(MaxRelations))
		}
	}
	return s
}

// Property: union/intersection/difference behave like their map-based models
// over the full 128-bit domain.
func TestQuickSetAlgebraModel(t *testing.T) {
	f := func(a0, a1, b0, b1 uint64) bool {
		sa, sb := FromWords(a0, a1), FromWords(b0, b1)
		model := func(s Set) map[int]bool {
			m := map[int]bool{}
			s.Each(func(i int) { m[i] = true })
			return m
		}
		ma, mb := model(sa), model(sb)
		for i := 0; i < MaxRelations; i++ {
			if sa.Union(sb).Has(i) != (ma[i] || mb[i]) {
				return false
			}
			if sa.Intersect(sb).Has(i) != (ma[i] && mb[i]) {
				return false
			}
			if sa.Diff(sb).Has(i) != (ma[i] && !mb[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Len equals the number of elements Each visits, and Slice is
// sorted strictly increasing.
func TestQuickLenAndOrder(t *testing.T) {
	f := func(a0, a1 uint64) bool {
		s := FromWords(a0, a1)
		sl := s.Slice()
		if len(sl) != s.Len() {
			return false
		}
		for i := 1; i < len(sl); i++ {
			if sl[i] <= sl[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Less is a strict total order consistent with Compare, and agrees
// with lexicographic comparison of the reversed word arrays.
func TestQuickLessTotalOrder(t *testing.T) {
	f := func(a0, a1, b0, b1 uint64) bool {
		a, b := FromWords(a0, a1), FromWords(b0, b1)
		la, lb := a.Less(b), b.Less(a)
		if a == b {
			return !la && !lb && a.Compare(b) == 0
		}
		if la == lb { // exactly one direction must hold for distinct sets
			return false
		}
		if la && a.Compare(b) != -1 {
			return false
		}
		if lb && a.Compare(b) != 1 {
			return false
		}
		// Model: big-endian word comparison.
		wantLess := a[1] < b[1] || (a[1] == b[1] && a[0] < b[0])
		return la == wantLess
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
