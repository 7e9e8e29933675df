// Package feedback is the cardinality feedback ledger: estimate-vs-actual
// telemetry flowing from plan execution back toward the estimator.
//
// The paper's premise is that cardinality estimates are wrong and optimizers
// must stay robust anyway; the robustness harness (internal/ce) quantifies
// how wrong synthetically. This package measures how wrong they are in a
// *running* system: every executed plan node yields one (estimated rows,
// actual rows) observation attributed to a catalog object — the scanned
// relation, or the join-predicate column pairing — and the ledger aggregates
// those observations in rolling windows into q-error quantiles, directional
// bias, and a per-object staleness score. Raw observations can additionally
// be persisted as an append-only JSONL corpus (see corpus.go), the training
// data a future learned estimator replays.
//
// Downstream consumers close the loop: internal/route biases its deadline
// ladder away from exhaustive DP for queries touching stale objects (the
// PR 8 finding — DP degrades ~5× worse than the heuristics under stats loss
// — turned into a live routing signal), and internal/ce can replay a
// ledger's empirical error factors in place of synthetic log-normal ones.
package feedback

import (
	"fmt"
	"math"
	"sync"

	"sdpopt/internal/obs"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
)

// Kinds of catalog object an observation is attributed to.
const (
	// KindRelation attributes a scan node's output to its base relation.
	KindRelation = "relation"
	// KindPredicate attributes a join node's output to one of its
	// equi-join column pairings.
	KindPredicate = "predicate"
)

// Observation is one estimate-vs-actual measurement of an executed plan
// node, attributed to a catalog object. The JSON encoding is the corpus
// line format (see corpus.go).
type Observation struct {
	// Object is the catalog-level identity: the relation name ("R3") for
	// KindRelation, the sorted column pairing ("R3.c1=R5.c2") for
	// KindPredicate. The same object gets the same key in every query and
	// either spelling order, so errors correlate across the workload the
	// way stale statistics do.
	Object string `json:"object"`
	// Kind is KindRelation or KindPredicate.
	Kind string `json:"kind"`
	// Est is the optimizer's estimated output cardinality of the node.
	Est float64 `json:"est"`
	// Actual is the executed output cardinality.
	Actual float64 `json:"actual"`
	// Rels is the relation count of the node's subtree.
	Rels int `json:"rels"`
	// Tech is the technique that produced the plan, when known.
	Tech string `json:"tech,omitempty"`
	// TraceID links the observation to the serving trace that sampled it.
	TraceID string `json:"trace_id,omitempty"`
}

// Ratio returns est/actual with both sides floored at one row: > 1 is an
// overestimate, < 1 an underestimate.
func (o Observation) Ratio() float64 {
	e, a := math.Max(1, o.Est), math.Max(1, o.Actual)
	return e / a
}

// QError returns the q-error max(est/actual, actual/est), ≥ 1.
func (o Observation) QError() float64 {
	r := o.Ratio()
	return math.Max(r, 1/r)
}

// PredLabel is the stable catalog-level identity of join predicate pi: the
// two (relation, column) names sorted, joined with "=". The same column
// pairing labels identically in every query and either spelling order —
// the string twin of internal/ce's predKey.
func PredLabel(q *query.Query, pi int) string {
	p := q.Preds[pi]
	l := fmt.Sprintf("%s.%s", q.Relation(p.LeftRel).Name, q.Relation(p.LeftRel).Cols[p.LeftCol].Name)
	r := fmt.Sprintf("%s.%s", q.Relation(p.RightRel).Name, q.Relation(p.RightRel).Cols[p.RightCol].Name)
	if l > r {
		l, r = r, l
	}
	return l + "=" + r
}

// QueryObjects returns the catalog-object keys a query touches: its relation
// names plus its predicate labels. The serving layer feeds these to
// Ledger.StalenessFor to derive the routing signal for one request.
func QueryObjects(q *query.Query) []string {
	out := make([]string, 0, q.NumRelations()+len(q.Preds))
	for i := 0; i < q.NumRelations(); i++ {
		out = append(out, q.Relation(i).Name)
	}
	for pi := range q.Preds {
		out = append(out, PredLabel(q, pi))
	}
	return out
}

// PlanObservations pairs each executed node's estimated cardinality with its
// actual row count (from exec.RunActuals, keyed by node pointer) and
// attributes it to catalog objects: scan nodes to their base relation, join
// nodes to each equi-join predicate the node evaluates (every predicate of a
// multi-predicate join absorbs the node's full error — the standard blame
// assignment for feedback loops, where precision per predicate matters less
// than never missing a lying one). Sort nodes are pass-through and emit
// nothing. Nodes absent from actuals are skipped.
func PlanObservations(q *query.Query, p *plan.Plan, actuals map[*plan.Plan]int, tech, traceID string) []Observation {
	var out []Observation
	var walk func(n *plan.Plan)
	walk = func(n *plan.Plan) {
		if n == nil {
			return
		}
		walk(n.Left)
		walk(n.Right)
		actual, ok := actuals[n]
		if !ok {
			return
		}
		base := Observation{
			Est:     n.Rows,
			Actual:  float64(actual),
			Rels:    n.Rels.Len(),
			Tech:    tech,
			TraceID: traceID,
		}
		switch {
		case n.Op.IsScan():
			o := base
			o.Object = q.Relation(n.Rel).Name
			o.Kind = KindRelation
			out = append(out, o)
		case n.Op.IsJoin():
			for _, pi := range q.PredsBetween(n.Left.Rels, n.Right.Rels) {
				o := base
				o.Object = PredLabel(q, pi)
				o.Kind = KindPredicate
				out = append(out, o)
			}
		}
	}
	walk(p)
	return out
}

// LedgerOptions sizes a Ledger.
type LedgerOptions struct {
	// Window is the per-object rolling window size in observations
	// (default 64).
	Window int
	// MinObs is the observation count below which an object is never
	// flagged stale — one unlucky sample must not demote a route
	// (default 3).
	MinObs int
	// StaleScore is the staleness-score threshold at which an object is
	// flagged stale (default 0.5, i.e. windowed geomean q-error ≥ 2 — the
	// paper's Good/Acceptable boundary applied to estimates).
	StaleScore float64
	// Obs receives sdpopt_feedback_* metrics. Optional.
	Obs *obs.Observer
}

func (o LedgerOptions) withDefaults() LedgerOptions {
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.MinObs <= 0 {
		o.MinObs = 3
	}
	if o.StaleScore <= 0 {
		o.StaleScore = 0.5
	}
	return o
}

// Ledger aggregates observations per catalog object in rolling windows.
// Safe for concurrent use; all exported methods are no-ops on a nil
// receiver, so an unconfigured server carries a nil *Ledger at zero cost.
type Ledger struct {
	opts LedgerOptions

	mu      sync.RWMutex
	objects map[string]*objectState
	total   int64
}

// objectState is one catalog object's rolling window: a ring of est/actual
// ratios plus lifetime counters.
type objectState struct {
	kind string
	// ratios is the ring of recent est/actual ratios (not q-errors: the
	// sign — over vs under — survives windowing).
	ratios []float64
	head   int
	// Lifetime counters.
	total       int64
	over, under int64
	// Last observation, for display.
	lastEst, lastActual float64
}

func (st *objectState) push(r float64, capacity int) {
	if len(st.ratios) < capacity {
		st.ratios = append(st.ratios, r)
		return
	}
	st.ratios[st.head] = r
	st.head = (st.head + 1) % capacity
}

// windowOrdered returns the ring oldest-first.
func (st *objectState) windowOrdered() []float64 {
	out := make([]float64, 0, len(st.ratios))
	out = append(out, st.ratios[st.head:]...)
	out = append(out, st.ratios[:st.head]...)
	return out
}

// score derives the staleness score from the current window: with geomean
// windowed q-error G ≥ 1, the score is 1 − 1/G ∈ [0, 1). Perfect estimates
// score 0; G = 2 scores 0.5; the score saturates toward 1 as estimates
// detach from reality entirely. The mapping is monotone in G, so comparing
// scores compares geomean q-errors.
func (st *objectState) score() float64 {
	if len(st.ratios) == 0 {
		return 0
	}
	sumLog := 0.0
	for _, r := range st.ratios {
		sumLog += math.Abs(math.Log(r))
	}
	g := math.Exp(sumLog / float64(len(st.ratios)))
	return 1 - 1/g
}

// NewLedger builds a ledger and registers its stale-object gauge on the
// options' observer.
func NewLedger(opts LedgerOptions) *Ledger {
	l := &Ledger{opts: opts.withDefaults(), objects: map[string]*objectState{}}
	if l.opts.Obs != nil && l.opts.Obs.Registry != nil {
		l.opts.Obs.Registry.GaugeFunc(obs.MFeedbackStaleObjects, func() int64 {
			return int64(l.StaleCount())
		})
	}
	return l
}

// Record folds observations into the ledger and records their metrics.
// Nil-safe.
func (l *Ledger) Record(observations ...Observation) {
	if l == nil {
		return
	}
	for _, o := range observations {
		if o.Object == "" {
			continue
		}
		r := o.Ratio()
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			continue
		}
		l.mu.Lock()
		st := l.objects[o.Object]
		if st == nil {
			st = &objectState{kind: o.Kind}
			l.objects[o.Object] = st
		}
		st.push(r, l.opts.Window)
		st.total++
		if r > 1 {
			st.over++
		} else if r < 1 {
			st.under++
		}
		st.lastEst, st.lastActual = o.Est, o.Actual
		l.total++
		l.mu.Unlock()

		if ob := l.opts.Obs; ob != nil {
			ob.Histogram(obs.Label(obs.MFeedbackQError, "kind", o.Kind), obs.RatioBuckets).
				ObserveExemplar(o.QError(), o.TraceID)
			ob.Counter(obs.Label(obs.MFeedbackObservations, "kind", o.Kind)).Add(1)
		}
	}
}

// Staleness returns object's current staleness score in [0, 1), 0 for
// unknown objects or below-MinObs windows. Nil-safe.
func (l *Ledger) Staleness(object string) float64 {
	if l == nil {
		return 0
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	st := l.objects[object]
	if st == nil || st.total < int64(l.opts.MinObs) {
		return 0
	}
	return st.score()
}

// StalenessFor returns the worst staleness score among the given objects —
// the scalar routing signal for one query (see QueryObjects). Nil-safe.
func (l *Ledger) StalenessFor(objects []string) float64 {
	if l == nil {
		return 0
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	worst := 0.0
	for _, obj := range objects {
		st := l.objects[obj]
		if st == nil || st.total < int64(l.opts.MinObs) {
			continue
		}
		if s := st.score(); s > worst {
			worst = s
		}
	}
	return worst
}

// StaleCount returns how many objects are currently flagged stale. Nil-safe.
func (l *Ledger) StaleCount() int {
	if l == nil {
		return 0
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := 0
	for _, st := range l.objects {
		if st.total >= int64(l.opts.MinObs) && st.score() >= l.opts.StaleScore {
			n++
		}
	}
	return n
}

// Total returns the lifetime observation count. Nil-safe.
func (l *Ledger) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.total
}
