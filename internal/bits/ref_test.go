package bits

import (
	"math/rand"
	"testing"
)

// refSet is the obviously-correct reference implementation every multi-word
// operation is checked against: a boolean membership array with set algebra
// written element-by-element.
type refSet [MaxRelations]bool

func refFrom(s Set) refSet {
	var r refSet
	s.Each(func(i int) { r[i] = true })
	return r
}

func (r refSet) toSet() Set {
	var s Set
	for i, ok := range r {
		if ok {
			s = s.Add(i)
		}
	}
	return s
}

func (r refSet) len() int {
	n := 0
	for _, ok := range r {
		if ok {
			n++
		}
	}
	return n
}

func (r refSet) slice() []int {
	var out []int
	for i, ok := range r {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// boundaryRandomSet draws sets that preferentially include bits 62–65 and
// 126–127, the cross-word cases a single-word implementation never sees.
func boundaryRandomSet(rng *rand.Rand, maxLen int) Set {
	hot := []int{62, 63, 64, 65, 126, 127}
	var s Set
	n := 1 + rng.Intn(maxLen)
	for s.Len() < n {
		if rng.Intn(2) == 0 {
			s = s.Add(hot[rng.Intn(len(hot))])
		} else {
			s = s.Add(rng.Intn(MaxRelations))
		}
	}
	return s
}

func TestReferenceAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		a := boundaryRandomSet(rng, 20)
		b := boundaryRandomSet(rng, 20)
		ra, rb := refFrom(a), refFrom(b)

		var union, inter, diff refSet
		overlaps, contains := false, true
		for i := 0; i < MaxRelations; i++ {
			union[i] = ra[i] || rb[i]
			inter[i] = ra[i] && rb[i]
			diff[i] = ra[i] && !rb[i]
			overlaps = overlaps || (ra[i] && rb[i])
			contains = contains && (!rb[i] || ra[i])
		}
		if got, want := a.Union(b), union.toSet(); got != want {
			t.Fatalf("Union(%v,%v) = %v, want %v", a, b, got, want)
		}
		if got, want := a.Intersect(b), inter.toSet(); got != want {
			t.Fatalf("Intersect(%v,%v) = %v, want %v", a, b, got, want)
		}
		if got, want := a.Diff(b), diff.toSet(); got != want {
			t.Fatalf("Diff(%v,%v) = %v, want %v", a, b, got, want)
		}
		if a.Overlaps(b) != overlaps || a.Disjoint(b) == overlaps {
			t.Fatalf("Overlaps(%v,%v) disagrees with reference", a, b)
		}
		if a.Contains(b) != contains {
			t.Fatalf("Contains(%v,%v) disagrees with reference", a, b)
		}
		if a.Len() != ra.len() {
			t.Fatalf("Len(%v) = %d, want %d", a, a.Len(), ra.len())
		}
		sl := ra.slice()
		if a.Min() != sl[0] || a.Max() != sl[len(sl)-1] {
			t.Fatalf("Min/Max(%v) disagree with reference %v", a, sl)
		}
	}
}

func TestReferenceIter(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 500; trial++ {
		s := boundaryRandomSet(rng, 20)
		r := refFrom(s)
		want := r.slice()

		var viaIter []int
		for it := s.Iter(); ; {
			i, ok := it.Next()
			if !ok {
				break
			}
			viaIter = append(viaIter, i)
		}
		if !equalInts(viaIter, want) {
			t.Fatalf("Iter(%v) = %v, reference %v", s, viaIter, want)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
