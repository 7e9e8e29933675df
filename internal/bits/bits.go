// Package bits implements relation sets as fixed-width multi-word bitsets.
//
// The optimizer identifies every join-composite relation (JCR) by the set of
// base relations it covers. Set is a fixed [2]uint64 array value — two words
// give 128 relation slots, enough for the large-query workloads (Star-30,
// Clique-25, snowflakes, 100-relation chains) while remaining a comparable
// value type: sets are zero-allocation map keys, memo lookups stay a single
// map probe, and == is exact set equality. All set algebra is word-parallel,
// so the adjacency-indexed Walker's OR/AND-NOT mask arithmetic carries over
// unchanged in spirit: each operation is a short fixed loop the compiler
// unrolls.
package bits

import (
	"fmt"
	mbits "math/bits"
	"strings"
)

const (
	wordBits = 64
	// numWords is the fixed word count of a Set. Raising it widens every
	// engine in the repo at once; 2 words (128 relations) doubles the paper's
	// largest experiment with headroom for the massively-parallel literature's
	// 100-relation regime.
	numWords = 2
)

// MaxRelations is the largest number of base relations a Set can hold.
const MaxRelations = numWords * wordBits

// Set is a set of relation indexes in [0, MaxRelations). The zero value is
// the empty set. Word 0 holds indexes 0–63, word 1 holds 64–127; the numeric
// order used by Less/Compare treats word 1 as the high word, so for sets
// confined to the first 64 relations the order is identical to the historical
// uint64 encoding.
type Set [numWords]uint64

// Single returns the set containing only relation i.
func Single(i int) Set {
	if i < 0 || i >= MaxRelations {
		panic(fmt.Sprintf("bits: relation index %d out of range [0,%d)", i, MaxRelations))
	}
	var s Set
	s[i/wordBits] = 1 << uint(i%wordBits)
	return s
}

// Of returns the set of the given relation indexes.
func Of(idx ...int) Set {
	var s Set
	for _, i := range idx {
		s = s.Add(i)
	}
	return s
}

// FromWords builds a set directly from its machine words, word 0 first
// (relations 0–63). It is the inverse of indexing the Set array and exists
// for tests and reference implementations that need dense random sets.
func FromWords(words ...uint64) Set {
	if len(words) > numWords {
		panic(fmt.Sprintf("bits: %d words exceeds the %d-word set width", len(words), numWords))
	}
	var s Set
	copy(s[:], words)
	return s
}

// Full returns the set {0, 1, ..., n-1}.
func Full(n int) Set {
	if n < 0 || n > MaxRelations {
		panic(fmt.Sprintf("bits: set size %d out of range [0,%d]", n, MaxRelations))
	}
	var s Set
	for w := 0; n > 0; w++ {
		if n >= wordBits {
			s[w] = ^uint64(0)
			n -= wordBits
		} else {
			s[w] = 1<<uint(n) - 1
			n = 0
		}
	}
	return s
}

// Has reports whether relation i is in s.
func (s Set) Has(i int) bool {
	return s[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Add returns s with relation i added.
func (s Set) Add(i int) Set {
	if i < 0 || i >= MaxRelations {
		panic(fmt.Sprintf("bits: relation index %d out of range [0,%d)", i, MaxRelations))
	}
	s[i/wordBits] |= 1 << uint(i%wordBits)
	return s
}

// Remove returns s with relation i removed.
func (s Set) Remove(i int) Set {
	if i < 0 || i >= MaxRelations {
		panic(fmt.Sprintf("bits: relation index %d out of range [0,%d)", i, MaxRelations))
	}
	s[i/wordBits] &^= 1 << uint(i%wordBits)
	return s
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	for w := range s {
		s[w] |= t[w]
	}
	return s
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	for w := range s {
		s[w] &= t[w]
	}
	return s
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	for w := range s {
		s[w] &^= t[w]
	}
	return s
}

// Overlaps reports whether s and t share any relation.
func (s Set) Overlaps(t Set) bool {
	for w := range s {
		if s[w]&t[w] != 0 {
			return true
		}
	}
	return false
}

// Disjoint reports whether s and t share no relation.
func (s Set) Disjoint(t Set) bool { return !s.Overlaps(t) }

// Contains reports whether every relation of t is in s.
func (s Set) Contains(t Set) bool {
	for w := range s {
		if s[w]&t[w] != t[w] {
			return false
		}
	}
	return true
}

// IsEmpty reports whether s is the empty set.
func (s Set) IsEmpty() bool {
	for w := range s {
		if s[w] != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of relations in s.
func (s Set) Len() int {
	n := 0
	for w := range s {
		n += mbits.OnesCount64(s[w])
	}
	return n
}

// Min returns the smallest relation index in s. It panics on the empty set.
func (s Set) Min() int {
	for w := range s {
		if s[w] != 0 {
			return w*wordBits + mbits.TrailingZeros64(s[w])
		}
	}
	panic("bits: Min of empty set")
}

// Max returns the largest relation index in s. It panics on the empty set.
func (s Set) Max() int {
	for w := numWords - 1; w >= 0; w-- {
		if s[w] != 0 {
			return w*wordBits + wordBits - 1 - mbits.LeadingZeros64(s[w])
		}
	}
	panic("bits: Max of empty set")
}

// Less reports whether s precedes t in the canonical numeric order: the set
// is read as one wide unsigned integer with word numWords-1 most significant.
// This is the total order every deterministic sort in the repo uses (the
// canonical class order level hooks observe); for sets within the first
// 64 relations it coincides with the historical uint64 comparison.
func (s Set) Less(t Set) bool {
	for w := numWords - 1; w >= 0; w-- {
		if s[w] != t[w] {
			return s[w] < t[w]
		}
	}
	return false
}

// Compare returns -1, 0, or +1 ordering s against t in the same canonical
// numeric order as Less.
func (s Set) Compare(t Set) int {
	for w := numWords - 1; w >= 0; w-- {
		if s[w] != t[w] {
			if s[w] < t[w] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Each calls fn for every relation index in s, in increasing order.
func (s Set) Each(fn func(i int)) {
	for w := range s {
		for t := s[w]; t != 0; t &= t - 1 {
			fn(w*wordBits + mbits.TrailingZeros64(t))
		}
	}
}

// Iter returns an allocation-free iterator over s in increasing index order.
// Unlike Each it needs no closure, so hot enumeration loops (the memo's
// adjacency-index walks) can consume a set without any call overhead the
// inliner cannot remove:
//
//	for it := s.Iter(); ; {
//		i, ok := it.Next()
//		if !ok {
//			break
//		}
//		...
//	}
func (s Set) Iter() Iter { return Iter{rest: s} }

// Iter is a cursor over a Set's members. The zero value is exhausted.
type Iter struct {
	rest Set
	word int
}

// Next returns the next relation index in increasing order, reporting false
// when the set is exhausted.
func (it *Iter) Next() (int, bool) {
	for it.word < numWords {
		if w := it.rest[it.word]; w != 0 {
			it.rest[it.word] = w & (w - 1)
			return it.word*wordBits + mbits.TrailingZeros64(w), true
		}
		it.word++
	}
	return -1, false
}

// Slice returns the relation indexes of s in increasing order.
func (s Set) Slice() []int {
	out := make([]int, 0, s.Len())
	s.Each(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as "{1,3,7}" using 1-based relation numbers, the
// numbering convention the paper's figures use.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.Each(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", i+1)
	})
	b.WriteByte('}')
	return b.String()
}
