// Package route picks the optimization technique per request — the
// serving layer's answer to "a service fronting millions of users cannot
// run exhaustive DP on every query". The paper's point is that robust
// heuristics buy feasibility at bounded plan-quality loss; the router
// operationalizes it by spending optimization effort where the query shape
// earns it and the deadline allows it:
//
//   - greedy (GOO) is the microsecond fast path for queries too small or
//     too chain-like to reward enumeration;
//   - SDP is the default — the paper's robust heuristic;
//   - IDP2 takes the heavy tail, where full SDP's memory appetite puts it
//     at risk of the budget cliff and its latency of the deadline;
//   - any choice is demoted down the ladder when its predicted latency
//     does not fit the request's remaining deadline, and the serving layer
//     additionally demotes mid-flight to greedy when the chosen engine's
//     time slice expires.
//
// Decisions are driven by live evidence, not just static thresholds: the
// router maintains online EWMA latency profiles per (technique, topology,
// relation-band) key — seeded from conservative priors, updated with every
// computed serve — and consumes the shadow optimizer's regret stream
// (internal/obs/regret) so a cheap route whose rolling plan-quality ρ
// degrades on some key is promoted back to SDP.
//
// The router observes and recommends; it never executes. It names its
// rungs from the tech table, and the serving layer owns running the
// decision (and the mid-flight fallback), which makes the decision table a
// pure function of the profile state — directly testable as a golden table.
package route

import (
	"sync"
	"time"

	"sdpopt/internal/obs/regret"
	"sdpopt/internal/tech"
)

// Route reasons, attached to responses, span attributes, metrics labels and
// regret exemplars so bad ρ or bad latency can be attributed to a routing
// decision rather than to a technique in the abstract.
const (
	// ReasonExplicit marks a request that named its technique; the router
	// was not consulted.
	ReasonExplicit = "explicit"
	// ReasonFastPath is the greedy fast path: small or chain-like queries.
	ReasonFastPath = "auto:greedy-fastpath"
	// ReasonDefault is the SDP default route.
	ReasonDefault = "auto:sdp-default"
	// ReasonHeavy is the IDP heavy-tail route for relation counts at risk
	// of SDP's memory-budget cliff.
	ReasonHeavy = "auto:idp-heavy"
	// ReasonRegretPromote marks a cheap route overridden back to SDP
	// because its rolling regret ρ on this (shape, band) key degraded.
	ReasonRegretPromote = "auto:regret-promote"
	// ReasonDeadlineDowngrade marks a pre-flight demotion: the preferred
	// technique's predicted latency did not fit the remaining deadline.
	ReasonDeadlineDowngrade = "auto:deadline-downgrade"
	// ReasonDeadlineDemote marks the mid-flight fallback: the chosen
	// engine's time slice expired and the serving layer re-ran greedy.
	ReasonDeadlineDemote = "auto:deadline-demote"
	// ReasonBudgetDemote marks the mid-flight fallback taken when the
	// chosen engine aborted on the memory-feasibility budget.
	ReasonBudgetDemote = "auto:budget-demote"
	// ReasonExact is the opt-in exhaustive-DP tier: queries small enough
	// (Options.ExactRels) to afford full enumeration for the optimal plan.
	ReasonExact = "auto:dp-exact"
	// ReasonStaleDemote marks a DP-exact route demoted to SDP because the
	// cardinality-feedback ledger flagged the query's objects stale:
	// exhaustive DP's precision is exactly as good as the estimates it
	// exploits, and the ledger just measured those estimates lying.
	ReasonStaleDemote = "auto:stale-demote"
)

// rungs are the tech table's techniques, strongest first. By default the
// router never routes to exhaustive DP, whose super-polynomial blowup a
// serving path must not gamble on; Options.ExactRels opts small queries in.
// The IDP rung is IDP2, not IDP1: IDP1's k-sized table rebuilds run for
// seconds on large stars, while IDP2 stays in single-digit milliseconds at
// plan quality close to the reference.
var rungs = tech.Names()

// Options configures a Router. The zero value selects the defaults noted
// on each field.
type Options struct {
	// SmallRels routes queries with at most this many relations to greedy
	// (default 4): below it every technique finds the same plans and the
	// fast path is pure latency win.
	SmallRels int
	// HeavyRels routes queries with at least this many relations to IDP
	// (default 20): the band where full SDP approaches the memory-budget
	// cliff, which IDP's bounded subtrees sidestep. Deliberately beyond
	// the sizes SDP handles comfortably — SDP stays the default as long
	// as it is safe.
	HeavyRels int
	// DemoteRho is the rolling-regret threshold (default 1.15): a cheap
	// route whose regret EWMA on a (shape, band) key exceeds it is promoted
	// back to SDP. The paper's "Good" plans sit within 2× of optimal; 1.15
	// flags drift well before that boundary.
	DemoteRho float64
	// MinRegretSamples is how many regret observations a key needs before
	// the feedback loop may demote it (default 4) — one bad exemplar must
	// not flip a route.
	MinRegretSamples int64
	// SafetyFactor scales predicted latency before comparing against the
	// remaining deadline (default 2): EWMA means underestimate tails.
	SafetyFactor float64
	// LatencyAlpha is the EWMA smoothing factor for latency profiles
	// (default 0.2).
	LatencyAlpha float64
	// RegretAlpha is the EWMA smoothing factor for the regret feedback
	// stream (default 0.1 — quality drifts slower than latency).
	RegretAlpha float64
	// MinReserve and MaxReserve clamp the fallback reserve: the slice of
	// the remaining deadline withheld from the chosen engine so a
	// mid-flight demotion still has time to run greedy and render a
	// response (defaults 5ms and 250ms; the reserve is remaining/8 between
	// them).
	MinReserve time.Duration
	MaxReserve time.Duration
	// ExactRels opts queries into the exhaustive-DP tier: above the greedy
	// fast path and at most this many relations, route to full DP for the
	// enumeration-optimal plan. Default 0 — disabled; DP on the serving
	// path is strictly an operator's informed choice.
	ExactRels int
	// StaleScore is the feedback-ledger staleness at which the DP-exact
	// tier is demoted back to SDP (default 0.5, i.e. a windowed geomean
	// q-error of 2 on the query's worst object): when estimates are known
	// to lie, DP's exhaustive exploitation of them buys risk, not
	// optimality, so the robust heuristic serves instead.
	StaleScore float64
}

func (o Options) withDefaults() Options {
	if o.SmallRels <= 0 {
		o.SmallRels = 4
	}
	if o.HeavyRels <= 0 {
		o.HeavyRels = 20
	}
	if o.DemoteRho <= 0 {
		o.DemoteRho = 1.15
	}
	if o.MinRegretSamples <= 0 {
		o.MinRegretSamples = 4
	}
	if o.SafetyFactor <= 0 {
		o.SafetyFactor = 2
	}
	if o.LatencyAlpha <= 0 || o.LatencyAlpha > 1 {
		o.LatencyAlpha = 0.2
	}
	if o.RegretAlpha <= 0 || o.RegretAlpha > 1 {
		o.RegretAlpha = 0.1
	}
	if o.MinReserve <= 0 {
		o.MinReserve = 5 * time.Millisecond
	}
	if o.MaxReserve <= 0 {
		o.MaxReserve = 250 * time.Millisecond
	}
	if o.StaleScore <= 0 || o.StaleScore >= 1 {
		o.StaleScore = 0.5
	}
	return o
}

// Decision is one routing outcome: the technique to run, why, what latency
// the profiles predict for it, and the reserve the executor should withhold
// from the deadline to keep the greedy fallback viable.
type Decision struct {
	// Technique is the resolved technique name ("greedy", "sdp", "idp2").
	Technique string
	// Reason is the Reason* constant explaining the choice.
	Reason string
	// Predicted is the profile's latency estimate for Technique on this
	// (shape, band) key — EWMA when samples exist, prior otherwise.
	Predicted time.Duration
	// Reserve is nonzero when the executor should arm the mid-flight
	// fallback: run Technique with the deadline pulled in by Reserve, and
	// demote to greedy if that slice expires.
	Reserve time.Duration
}

// key identifies one latency or regret window.
type key struct{ tech, shape, band string }

// ewma is one exponentially-weighted profile: the smoothed value, sample
// count, and extrema for the debug surface.
type ewma struct {
	val  float64
	n    int64
	last float64
	max  float64
}

func (e *ewma) update(v, alpha float64) {
	e.n++
	e.last = v
	if v > e.max {
		e.max = v
	}
	if e.n == 1 {
		e.val = v
		return
	}
	e.val += alpha * (v - e.val)
}

// Router is the SLO-aware technique router. Construct with New; it is safe
// for concurrent use (Decide under a read lock against concurrent
// Observe/NoteRegret updates).
type Router struct {
	opts Options

	mu        sync.RWMutex
	lat       map[key]*ewma
	reg       map[key]*ewma
	decisions map[[2]string]int64 // (technique, reason) -> count
	fallbacks int64
	start     time.Time
}

// New builds a router with opts (zero value: all defaults).
func New(opts Options) *Router {
	return &Router{
		opts:      opts.withDefaults(),
		lat:       map[key]*ewma{},
		reg:       map[key]*ewma{},
		decisions: map[[2]string]int64{},
		start:     time.Now(),
	}
}

// Band buckets a relation count into the router's profile bands — the same
// bands the regret layer aggregates over, so the feedback loop's keys line
// up with the decision keys by construction.
func Band(rels int) string { return regret.Band(rels) }

// ladder returns the downgrade chain from t toward cheaper techniques: the
// rungs from t down. The chain is by optimization effort, not quality: a
// deadline squeeze trades quality for an answer in time.
func ladder(t string) []string {
	for i, r := range rungs {
		if r == t {
			return rungs[i:]
		}
	}
	return []string{tech.Greedy}
}

// Decide routes one query: rels relations, shape from query.Shape(), and
// the remaining deadline (0 = none). Decide is pure — it reads the live
// profiles but records nothing; the serving layer reports the executed
// outcome back via Count/Observe. Decide assumes fresh statistics; servers
// wired to a cardinality-feedback ledger call DecideObserved instead.
func (r *Router) Decide(rels int, shape string, remaining time.Duration) Decision {
	return r.DecideObserved(rels, shape, remaining, 0)
}

// DecideObserved is Decide plus the feedback loop's input: staleness is the
// ledger's worst staleness score over the query's catalog objects (0 when
// no ledger runs). It biases the ladder away from exhaustive DP — the
// technique most leveraged on estimate precision — when the ledger has
// measured the estimates drifting.
func (r *Router) DecideObserved(rels int, shape string, remaining time.Duration, staleness float64) Decision {
	band := Band(rels)

	r.mu.RLock()
	defer r.mu.RUnlock()

	// Base ladder: fast path for small or chain-like shapes, IDP for the
	// heavy tail, the opt-in exhaustive tier for small-enough queries, SDP
	// in between.
	choice, reason := tech.SDP, ReasonDefault
	switch {
	case rels <= r.opts.SmallRels || shape == "single" || shape == "chain":
		choice, reason = tech.Greedy, ReasonFastPath
	case rels >= r.opts.HeavyRels:
		choice, reason = tech.IDP2, ReasonHeavy
	case r.opts.ExactRels > 0 && rels <= r.opts.ExactRels:
		choice, reason = tech.DP, ReasonExact
	}

	// Cardinality feedback: exhaustive DP chases the cost model's exact
	// optimum, so its advantage over the robust heuristic is real only
	// while the estimates are. A stale-flagged shape falls back to SDP —
	// the paper's point that heuristics lose little under misestimation
	// applies doubly when the misestimation is measured, not hypothetical.
	if choice == tech.DP && staleness >= r.opts.StaleScore {
		choice, reason = tech.SDP, ReasonStaleDemote
	}

	// Regret feedback: a cheap route whose rolling ρ on this key degraded
	// is promoted back to SDP — plan quality is the thing the cheap route
	// was trading away, and the shadow optimizer just measured the trade
	// going bad.
	if choice != tech.SDP && choice != tech.DP {
		if e := r.reg[key{choice, shape, band}]; e != nil &&
			e.n >= r.opts.MinRegretSamples && e.val > r.opts.DemoteRho {
			choice, reason = tech.SDP, ReasonRegretPromote
		}
	}

	// Deadline: walk the downgrade chain until the predicted latency fits
	// what remains after the fallback reserve. No fit at all (even greedy
	// predicted over budget) still resolves to greedy — it is the cheapest
	// thing we have, and the mid-flight fallback cannot demote further.
	var reserve time.Duration
	if remaining > 0 {
		reserve = remaining / 8
		if reserve < r.opts.MinReserve {
			reserve = r.opts.MinReserve
		}
		if reserve > r.opts.MaxReserve {
			reserve = r.opts.MaxReserve
		}
		avail := remaining - reserve
		if avail <= 0 {
			avail = remaining / 2
		}
		chain := ladder(choice)
		fit := ""
		for _, t := range chain {
			if time.Duration(float64(r.predictLocked(t, shape, band))*r.opts.SafetyFactor) <= avail {
				fit = t
				break
			}
		}
		if fit == "" {
			fit = tech.Greedy
		}
		if fit != choice {
			choice, reason = fit, ReasonDeadlineDowngrade
		}
	}

	dec := Decision{Technique: choice, Reason: reason, Predicted: r.predictLocked(choice, shape, Band(rels))}
	if choice != tech.Greedy && remaining > 0 {
		dec.Reserve = reserve
	}
	return dec
}

// Predict returns the router's current latency estimate for tech on a
// (shape, band) key: the live EWMA when the key has samples, the static
// prior otherwise.
func (r *Router) Predict(tech, shape, band string) time.Duration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.predictLocked(tech, shape, band)
}

func (r *Router) predictLocked(tech, shape, band string) time.Duration {
	if e := r.lat[key{tech, shape, band}]; e != nil && e.n > 0 {
		return time.Duration(e.val)
	}
	return prior(tech, band)
}

// Observe folds one measured optimization latency into the (tech, shape,
// band) profile. timedOut marks a run cut short by its deadline slice: the
// measured duration is then only a lower bound on the true latency and
// proof the current estimate is wrong by at least that much, so the profile
// jumps to twice the slice rather than blending toward it — one demotion is
// enough to turn the next identical request into a pre-flight downgrade.
func (r *Router) Observe(tech, shape, band string, d time.Duration, timedOut bool) {
	if d <= 0 {
		return
	}
	v := float64(d)
	if timedOut {
		v *= 2
	}
	k := key{tech, shape, band}
	r.mu.Lock()
	e := r.lat[k]
	if e == nil {
		e = &ewma{}
		r.lat[k] = e
	}
	e.update(v, r.opts.LatencyAlpha)
	if timedOut && e.val < v {
		e.val = v
	}
	r.mu.Unlock()
}

// NoteRegret folds one shadow-measured served/reference cost ratio into the
// (tech, shape, band) regret profile. Its signature matches
// regret.Options.OnSample so the server can wire the shadow optimizer's
// sample stream straight in.
func (r *Router) NoteRegret(tech, shape, band string, ratio float64) {
	if !(ratio > 0) {
		return
	}
	k := key{tech, shape, band}
	r.mu.Lock()
	e := r.reg[k]
	if e == nil {
		e = &ewma{}
		r.reg[k] = e
	}
	e.update(ratio, r.opts.RegretAlpha)
	r.mu.Unlock()
}

// Count records one executed routing outcome for the decision table —
// including "explicit" for requests that named their technique, so the
// debug surface shows the full serving mix, and the mid-flight demotion
// reasons, which it also tallies as fallbacks.
func (r *Router) Count(tech, reason string) {
	r.mu.Lock()
	r.decisions[[2]string{tech, reason}]++
	if reason == ReasonDeadlineDemote || reason == ReasonBudgetDemote {
		r.fallbacks++
	}
	r.mu.Unlock()
}

// bands lists the profile bands in ascending relation-count order.
var bands = []string{"1-4", "5-8", "9-12", "13-16", "17-24", "25+"}

// priors are the cold-start latency estimates per technique and band, in
// rough agreement with the repo's BENCH measurements on a single-core host
// (SDP Star-12 ≈ 9ms, Star-Chain-15 ≈ 22ms, Star-17 ≈ 61ms), deliberately
// rounded up — an optimistic prior causes mid-flight demotions until the
// EWMA learns better, a pessimistic one merely keeps the fast path warm.
var priors = map[string][]time.Duration{
	tech.Greedy: {100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond},
	tech.SDP: {time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond,
		60 * time.Millisecond, 250 * time.Millisecond, 2 * time.Second},
	// IDP2's cost is dominated by the greedy skeleton plus K-bounded DP
	// re-optimizations, which grows far more gently with query size than
	// full enumeration — measured single-digit ms through Star-24.
	tech.IDP2: {time.Millisecond, 4 * time.Millisecond, 6 * time.Millisecond,
		15 * time.Millisecond, 40 * time.Millisecond, 150 * time.Millisecond},
	// Exhaustive DP's priors reflect its super-polynomial blowup: sane in
	// the exact tier's intended bands, prohibitive beyond — a deadline of
	// any realistic size demotes it down the ladder there, which is the
	// intended behavior, not a tuning problem.
	tech.DP: {time.Millisecond, 30 * time.Millisecond, 500 * time.Millisecond,
		10 * time.Second, 15 * time.Minute, 24 * time.Hour},
}

func prior(t, band string) time.Duration {
	p, ok := priors[t]
	if !ok {
		p = priors[tech.SDP] // unknown technique: assume SDP-like cost
	}
	for i, b := range bands {
		if b == band {
			return p[i]
		}
	}
	return p[len(p)-1]
}
