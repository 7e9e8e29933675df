package memo

import (
	mathbits "math/bits"

	"sdpopt/internal/bits"
)

// levelIndex is one leaf level's adjacency index: membership bitmaps over
// the level's class sequence numbers, in one word-major slab. Row w of byRel
// holds word w of every relation's bitmap — byRel[w*stride+r] has bit s set
// when the class with Seq 64w+s contains base relation r — and stride is the
// query's relation count, so the level grows by one row per 64 classes. alive
// has bit s set while that class is in the memo. From these, a Walker derives
// a left class's exact candidate set with word-parallel boolean algebra
// instead of any per-class test:
//
//	connected  = ⋃ { byRel[r] : r ∈ a.Nbrs }   (shares a joinable edge)
//	overlapped = ⋃ { byRel[r] : r ∈ a.Set  }   (shares a base relation)
//	candidates = connected &^ overlapped & alive
//
// Levels below the one being enumerated are frozen (classes are only
// created at the current level, and pruning hooks run between levels), so a
// level's walks all read the same bitmaps.
type levelIndex struct {
	stride int
	byRel  []uint64
	alive  []uint64
}

// add indexes a newly created class: seq must be the level's next sequence
// number (the slab grows by at most one row).
func (ix *levelIndex) add(seq int, set bits.Set) {
	word, bit := seq>>6, uint(seq&63)
	if word == len(ix.alive) {
		ix.alive = append(ix.alive, 0)
		ix.byRel = append(ix.byRel, make([]uint64, ix.stride)...)
	}
	ix.alive[word] |= 1 << bit
	row := ix.byRel[word*ix.stride : (word+1)*ix.stride]
	for it := set.Iter(); ; {
		r, ok := it.Next()
		if !ok {
			return
		}
		row[r] |= 1 << bit
	}
}

// reset empties the index for a query of stride relations, keeping its
// buffers.
func (lv *leafLevel) reset(stride int) {
	lv.classes = lv.classes[:0]
	lv.stride, lv.byRel, lv.alive = stride, lv.byRel[:0], lv.alive[:0]
}

// remove clears a pruned class's alive bit; its membership bits stay (they
// are masked out by alive on every walk).
func (ix *levelIndex) remove(seq int) {
	ix.alive[seq>>6] &^= 1 << uint(seq&63)
}

// orRow returns the OR of the membership words in row of every relation in s.
func orRow(row []uint64, s bits.Set) uint64 {
	var x uint64
	for it := s.Iter(); ; {
		r, ok := it.Next()
		if !ok {
			return x
		}
		x |= row[r]
	}
}

// Walker gathers a left class's join candidates from one level's adjacency
// index. It is the indexed replacement for scanning the whole level and
// filtering each pair with Disjoint and Connected: per row of the index, the
// words of r ∈ a.Nbrs are OR-ed into a connectivity word, the words of
// r ∈ a.Set into an overlap word, and candidates = connected &^ overlapped
// & alive — exactly the classes the filtering scan would keep, computed 64
// classes per machine word. Iterating the set bits yields candidates in
// ascending Seq, which is creation order, which is the order the naive loop
// visits them in — so tie-breaks, and therefore chosen plans, are
// bit-for-bit identical to the reference scan's.
//
// A Walker reuses its scratch across calls and is not safe for concurrent
// use.
type Walker struct {
	out []*Class
}

// Gather returns the alive classes of the given level that are connected
// to and disjoint from a and whose Seq is at least minSeq, in creation
// order. minSeq implements the same-level unordered-pair rule: passing
// a.Seq()+1 when left and right draw from the same level visits each
// unordered pair exactly once, matching the naive loop's right[ai+1:]
// slice (AppendLevel preserves creation order, so "after a in the alive
// slice" is exactly "alive with larger Seq"). The returned slice is the
// walker's scratch, valid until the next Gather.
func (w *Walker) Gather(m *Memo, a *Class, level, minSeq int) []*Class {
	w.out = w.out[:0]
	if level < 0 || level >= len(m.levels) {
		return w.out
	}
	ix := &m.levels[level]
	if minSeq < 0 {
		minSeq = 0
	}
	for wi := minSeq >> 6; wi < len(ix.alive); wi++ {
		row := ix.byRel[wi*ix.stride : (wi+1)*ix.stride]
		word := orRow(row, a.Nbrs) & ix.alive[wi]
		if word == 0 {
			continue
		}
		word &^= orRow(row, a.Set)
		if wi == minSeq>>6 {
			word &= ^uint64(0) << uint(minSeq&63)
		}
		for word != 0 {
			s := wi<<6 + mathbits.TrailingZeros64(word)
			word &= word - 1
			w.out = append(w.out, m.cls.at(ix.classes[s]))
		}
	}
	return w.out
}
