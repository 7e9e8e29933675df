package plan

// Compare imposes a deterministic total order on plan trees: cheaper first,
// ties broken on a canonical structural key (relation set, operator, output
// order, scan relation, then the children recursively). Two plans compare
// equal only when they are structurally identical, which makes the order
// total over the distinct candidates a memo class ever sees — and therefore
// makes "the retained plan" independent of the order candidates arrive in.
// That arrival-order independence is what lets every optimizer that offers
// the same candidates in a different order — IDP1's blocks, IDP2's subtree
// re-plans, a run resumed level by level — produce bit-for-bit identical
// memos, so every retention decision in the memo funnels through this
// comparison.
func Compare(a, b *Plan) int {
	switch {
	case a == b:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	switch {
	case a.Cost < b.Cost:
		return -1
	case a.Cost > b.Cost:
		return 1
	}
	if c := a.Rels.Compare(b.Rels); c != 0 {
		return c
	}
	if a.Op != b.Op {
		return int(a.Op) - int(b.Op)
	}
	if a.Order != b.Order {
		return a.Order - b.Order
	}
	if a.Rel != b.Rel {
		return a.Rel - b.Rel
	}
	if c := Compare(a.Left, b.Left); c != 0 {
		return c
	}
	return Compare(a.Right, b.Right)
}

// Less reports whether a precedes b in Compare's total order. The cost
// comparison is inlined here: it decides almost every call from the
// enumeration hot path (memo retention), where cost ties are rare, and
// keeps the structural walk off that path.
func Less(a, b *Plan) bool {
	if a != nil && b != nil && a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	return Compare(a, b) < 0
}
