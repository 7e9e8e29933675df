package query

// Recanonicalize runs the canonicalizer afresh, bypassing the per-query
// memo, so benchmarks and allocation guards can measure it repeatedly.
func Recanonicalize(q *Query) *Canon { return newCanonicalizer(q).run() }
