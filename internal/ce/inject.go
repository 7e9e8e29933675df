package ce

import (
	"fmt"
	"math"

	"sdpopt/internal/cost"
	"sdpopt/internal/query"
)

// Mode selects which estimates the injector corrupts.
type Mode int

const (
	// ModeRelation corrupts base-relation cardinalities, correlated by
	// catalog relation: every query touching the same base table sees the
	// same lie, the way a stale ANALYZE misleads every query alike.
	ModeRelation Mode = iota
	// ModePredicate corrupts join-predicate selectivities, correlated by
	// the (relation, column) pair identities on both sides — the same
	// column pairing lies identically wherever it appears.
	ModePredicate
	// ModeBoth corrupts both.
	ModeBoth
)

// String returns the mode's flag spelling.
func (m Mode) String() string {
	switch m {
	case ModeRelation:
		return "relation"
	case ModePredicate:
		return "predicate"
	case ModeBoth:
		return "both"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a -mode flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "relation":
		return ModeRelation, nil
	case "predicate":
		return ModePredicate, nil
	case "both":
		return ModeBoth, nil
	}
	return 0, fmt.Errorf("ce: unknown error mode %q (relation|predicate|both)", s)
}

// Injector is a lying Estimator: it multiplies the base estimator's answers
// by deterministic log-normal error factors. Band b sizes the lie as a
// q-error bound: factors are exp(σ·z) with σ = ln(b)/1.645, putting ~90% of
// factors inside [1/b, b] — the standard way cardinality-estimation error is
// quantified (TiDB's CE framework, the JOB benchmark literature). Band 1.0
// means σ = 0: every factor is exactly 1 and the injector is bit-identical
// to its base, which is what the CI reference assertion pins.
//
// All factors are precomputed at construction from (seed, stable key), so an
// Injector is read-only afterwards and safe to share across concurrent
// optimizations. Keys are catalog-level identities, not query-local indexes, so
// the lie is correlated across queries: the same base table or column
// pairing is mis-estimated the same way everywhere, matching how real
// statistics go stale.
type Injector struct {
	base cost.Estimator
	band float64
	mode Mode

	relFactor  []float64 // per query-local relation
	predFactor []float64 // per query predicate
}

// NewInjector wraps base (nil selects the catalog estimator for q) in
// band-sized log-normal error under the given mode, deterministically in
// seed. Band must be ≥ 1.
func NewInjector(q *query.Query, base cost.Estimator, band float64, seed int64, mode Mode) (*Injector, error) {
	if band < 1 {
		return nil, fmt.Errorf("ce: error band %g < 1", band)
	}
	if base == nil {
		base = cost.NewCatalogEstimator(q)
	}
	inj := &Injector{base: base, band: band, mode: mode}
	sigma := 0.0
	if band > 1 {
		sigma = math.Log(band) / 1.645 // 90% of factors within [1/band, band]
	}
	inj.relFactor = make([]float64, q.NumRelations())
	for i := range inj.relFactor {
		inj.relFactor[i] = 1
		if sigma > 0 && mode != ModePredicate {
			// Key by catalog relation id: aliases of the same base table and
			// other queries over it share one lie.
			key := uint64(q.Rels[i]) + 0x52454c00 // "REL" tag, disjoint key spaces
			inj.relFactor[i] = math.Exp(sigma * normFromKey(seed, key))
		}
	}
	inj.predFactor = make([]float64, len(q.Preds))
	for pi := range inj.predFactor {
		inj.predFactor[pi] = 1
		if sigma > 0 && mode != ModeRelation {
			inj.predFactor[pi] = math.Exp(sigma * normFromKey(seed, predKey(q, pi)))
		}
	}
	return inj, nil
}

// predKey builds a stable catalog-level identity for predicate pi: the
// sorted (catalog relation, column) pairs of its two sides. The same column
// pairing gets the same key — and therefore the same lie — in every query
// and either spelling order.
func predKey(q *query.Query, pi int) uint64 {
	p := q.Preds[pi]
	l := uint64(q.Rels[p.LeftRel])<<16 | uint64(p.LeftCol)
	r := uint64(q.Rels[p.RightRel])<<16 | uint64(p.RightCol)
	if l > r {
		l, r = r, l
	}
	return l<<32 | r | 0x5045440000000000 // "PED" tag
}

// normFromKey derives a standard normal deviate deterministically from
// (seed, key) via splitmix64 bit-mixing and Box-Muller — no shared RNG
// state, so factor generation is order-independent and race-free.
func normFromKey(seed int64, key uint64) float64 {
	x := splitmix64(uint64(seed) ^ splitmix64(key))
	y := splitmix64(x)
	// Map to (0,1]: u1 must never be 0 for the log below.
	u1 := (float64(x>>11) + 1) / (1 << 53)
	u2 := float64(y>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Name implements cost.Estimator.
func (in *Injector) Name() string {
	return fmt.Sprintf("%s+err(band=%g,mode=%s)", in.base.Name(), in.band, in.mode)
}

// RelRows implements cost.Estimator: the base estimate times the relation's
// error factor, floored at one row.
func (in *Injector) RelRows(i int) float64 {
	return math.Max(1, in.base.RelRows(i)*in.relFactor[i])
}

// PredSel implements cost.Estimator: the base selectivity times the
// predicate's error factor, clamped to (0, 1].
func (in *Injector) PredSel(pi int) float64 {
	return math.Min(1, in.base.PredSel(pi)*in.predFactor[pi])
}

// ColumnNDV implements cost.Estimator. Distinct counts are passed through:
// the injected error already reaches join cardinalities via PredSel, and
// index-probe fan-out via the base NDVs stays consistent with them.
func (in *Injector) ColumnNDV(rel, col int) float64 { return in.base.ColumnNDV(rel, col) }

// FilterSel implements cost.Estimator. Filter error is expressed through
// RelRows (the post-filter cardinality the model actually consumes).
func (in *Injector) FilterSel(f query.Filter) float64 { return in.base.FilterSel(f) }
