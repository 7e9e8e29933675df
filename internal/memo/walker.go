package memo

import (
	mathbits "math/bits"

	"sdpopt/internal/bits"
)

// levelIndex is one leaf level's adjacency index: membership bitmaps over
// the level's class sequence numbers. byRel[r] has bit s set when the
// class with Seq s contains base relation r (trailing words that were
// never set are simply absent and read as zero); alive has bit s set while
// that class is in the memo. From these, a Walker derives a left class's
// exact candidate set with word-parallel boolean algebra instead of any
// per-class test:
//
//	connected  = ⋃ { byRel[r] : r ∈ a.Nbrs }   (shares a joinable edge)
//	overlapped = ⋃ { byRel[r] : r ∈ a.Set  }   (shares a base relation)
//	candidates = connected &^ overlapped & alive
//
// Levels below the one being enumerated are frozen (classes are only
// created at the current level, and pruning hooks run between levels), so a
// level's walks all read the same bitmaps.
type levelIndex struct {
	byRel [][]uint64
	alive []uint64
}

// add indexes a newly created class: seq must be the level's next sequence
// number (bitmaps grow by at most one word).
func (ix *levelIndex) add(seq int, set bits.Set) {
	word, bit := seq>>6, uint(seq&63)
	if word >= len(ix.alive) {
		ix.alive = append(ix.alive, 0)
	}
	ix.alive[word] |= 1 << bit
	if max := set.Max(); max >= len(ix.byRel) {
		ix.byRel = append(ix.byRel, make([][]uint64, max+1-len(ix.byRel))...)
	}
	for it := set.Iter(); ; {
		r, ok := it.Next()
		if !ok {
			break
		}
		for word >= len(ix.byRel[r]) {
			ix.byRel[r] = append(ix.byRel[r], 0)
		}
		ix.byRel[r][word] |= 1 << bit
	}
}

// remove clears a pruned class's alive bit; its membership bits stay (they
// are masked out by alive on every walk).
func (ix *levelIndex) remove(seq int) {
	ix.alive[seq>>6] &^= 1 << uint(seq&63)
}

// orRel ORs relation r's membership bitmap into dst (missing trailing
// words of the bitmap read as zero; len(src) ≤ len(dst) by construction).
func (ix *levelIndex) orRel(dst []uint64, r int) {
	if r < 0 || r >= len(ix.byRel) {
		return
	}
	for i, w := range ix.byRel[r] {
		dst[i] |= w
	}
}

// Walker gathers a left class's join candidates from one level's adjacency
// index. It is the indexed replacement for scanning the whole level and
// filtering each pair with Disjoint and Connected: the per-relation
// bitmaps of r ∈ a.Nbrs are OR-ed into a connectivity mask, the bitmaps of
// r ∈ a.Set into an overlap mask, and candidates = connected &^ overlapped
// & alive — exactly the classes the filtering scan would keep, computed 64
// classes per machine word. Iterating the mask's set bits yields
// candidates in ascending Seq, which is creation order, which is the order
// the naive loop visits them in — so tie-breaks, and therefore chosen
// plans, are bit-for-bit identical to the reference scan's.
//
// A Walker reuses its scratch across calls and is not safe for concurrent
// use.
type Walker struct {
	conn []uint64
	over []uint64
	out  []*Class
}

// growMasks zero-fills the walker's two scratch masks to the given word
// count, growing them if needed.
func (w *Walker) growMasks(words int) {
	if cap(w.conn) < words {
		w.conn = make([]uint64, words)
		w.over = make([]uint64, words)
	}
	w.conn = w.conn[:words]
	w.over = w.over[:words]
	for i := range w.conn {
		w.conn[i] = 0
		w.over[i] = 0
	}
}

// Gather returns the alive classes of the given level that are connected
// to and disjoint from a and whose Seq is at least minSeq, in creation
// order. minSeq implements the same-level unordered-pair rule: passing
// a.Seq()+1 when left and right draw from the same level visits each
// unordered pair exactly once, matching the naive loop's right[ai+1:]
// slice (Level preserves creation order, so "after a in the alive slice"
// is exactly "alive with larger Seq"). The returned slice is the walker's
// scratch, valid until the next Gather.
func (w *Walker) Gather(m *Memo, a *Class, level, minSeq int) []*Class {
	w.out = w.out[:0]
	if level < 0 || level >= len(m.byLevel) {
		return w.out
	}
	classes := m.byLevel[level]
	ix := &m.idx[level]
	words := (len(classes) + 63) >> 6
	w.growMasks(words)
	for it := a.Nbrs.Iter(); ; {
		r, ok := it.Next()
		if !ok {
			break
		}
		ix.orRel(w.conn, r)
	}
	for it := a.Set.Iter(); ; {
		r, ok := it.Next()
		if !ok {
			break
		}
		ix.orRel(w.over, r)
	}
	if minSeq < 0 {
		minSeq = 0
	}
	for wi := minSeq >> 6; wi < words; wi++ {
		word := w.conn[wi] &^ w.over[wi] & ix.alive[wi]
		if wi == minSeq>>6 {
			word &= ^uint64(0) << uint(minSeq&63)
		}
		for word != 0 {
			s := wi<<6 + mathbits.TrailingZeros64(word)
			word &= word - 1
			w.out = append(w.out, m.cls.at(classes[s]))
		}
	}
	return w.out
}
