// Package core implements SDP — Skyline Dynamic Programming — the paper's
// contribution: a robust, scalable pruning strategy for the bottom-up DP
// join-order search.
//
// SDP differs from prior heuristics (IDP) in two ways:
//
//  1. Localized pruning. Only join-composite relations (JCRs) that contain a
//     complete hub from the previous level are eligible for pruning (the
//     PruneGroup); everything else (the FreeGroup) keeps the full power of
//     exhaustive DP. Hubs — nodes with at least three join edges — are
//     recomputed every level on the contracted join graph, so composite hubs
//     formed during the search are caught too. Levels 1, N−2 and N−1 always
//     run standard DP: with two or fewer relations left to add, no hub can
//     exist.
//
//  2. Skyline pruning. Each PruneGroup is partitioned by hub (root hubs by
//     default, the variant the paper selects; parent hubs as the studied
//     alternative), and within each partition the JCRs compete on the
//     feature vector [Rows, Cost, Selectivity]. The survivors are the union
//     of the three pairwise skylines RC, CS and RS (Option 2) or the single
//     three-dimensional skyline (Option 1). A JCR that falls in several
//     partitions must survive in all of them.
//
// Ordered queries get one additional partition per relation carrying an
// interesting join column, holding every PruneGroup JCR that does NOT
// contain that relation; surviving any such partition keeps a JCR alive, so
// the pruning cannot destroy the ability to later form order-providing
// joins (paper Section 2.1.4).
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/memo"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/skyline"
)

// Partitioning selects how PruneGroup JCRs are grouped before the skyline
// is applied.
type Partitioning int

// Partitioning variants (paper Section 2.1.3).
const (
	// RootHub partitions by the hubs of the original join graph — the
	// variant the paper adopts, having found it as good as ParentHub with
	// lower overheads.
	RootHub Partitioning = iota
	// ParentHub partitions by the hub JCRs of the immediately previous
	// level.
	ParentHub
)

// String names the partitioning variant.
func (p Partitioning) String() string {
	if p == ParentHub {
		return "ParentHub"
	}
	return "RootHub"
}

// SkylineOption selects the pruning function over the [R,C,S] vector.
type SkylineOption int

// Skyline options (paper Section 2.1.5).
const (
	// Option2 unions the pairwise RC, CS and RS skylines — the paper's
	// choice: near-Option-1 plan quality with about half the JCRs.
	Option2 SkylineOption = iota
	// Option1 is the single skyline over the full three-dimensional vector.
	Option1
	// StrongSkyline is the k-dominant (k=2) skyline — the harsher pruning
	// the paper's future-work section points at.
	StrongSkyline
)

// String names the skyline option.
func (s SkylineOption) String() string {
	switch s {
	case Option1:
		return "Option1"
	case StrongSkyline:
		return "StrongSkyline"
	}
	return "Option2"
}

// Scope selects localized (hub-based) or global pruning.
type Scope int

// Pruning scopes. Global reproduces the ablation of Section 3.2.3: the
// skyline applied to every level's full JCR output with no hub logic.
const (
	Local Scope = iota
	Global
)

// String names the scope.
func (s Scope) String() string {
	if s == Global {
		return "Global"
	}
	return "Local"
}

// Options configures an SDP run.
type Options struct {
	Partitioning Partitioning
	Skyline      SkylineOption
	Scope        Scope
	// Budget is the simulated-memory feasibility limit (0 = unlimited).
	Budget int64
	// Ctx, if non-nil, bounds the optimization; cancellation aborts with
	// dp.ErrCanceled (see dp.Options.Ctx).
	Ctx context.Context
	// Model supplies costing; if nil a fresh default model is created.
	Model *cost.Model
	// Trace, if non-nil, records per-level pruning decisions (the
	// walkthrough of the paper's Figure 2.2). The pruning hook appends one
	// LevelTrace per pruning level; with Trace nil none is built.
	Trace *Trace
	// Obs receives metrics; nil falls back to the process default
	// observer.
	Obs *obs.Observer
	// Enum is passed through to the DP substrate (see dp.EnumMode): the
	// default is the indexed walk; the equivalence tests set dp.EnumNaive to
	// compare against the reference loop.
	Enum dp.EnumMode
}

// DefaultOptions returns the paper's adopted configuration: root-hub
// partitioning with the Option-2 disjunctive pairwise skyline, locally
// applied.
func DefaultOptions() Options {
	return Options{Partitioning: RootHub, Skyline: Option2, Scope: Local}
}

// Trace records what SDP pruned at each level: one LevelTrace per level at
// which the hook pruned, filled by the hook from the same decisions that
// feed the skyline metrics and the "sdp.level" spans.
type Trace struct {
	Levels []LevelTrace
}

// LevelTrace is one level's pruning record.
type LevelTrace struct {
	Level      int
	PruneGroup []bits.Set
	FreeGroup  []bits.Set
	// Partitions maps a partition label (hub relation or JCR, or "order:R")
	// to its member JCRs.
	Partitions map[string][]bits.Set
	// Features holds the [R,C,S] feature vector of every PruneGroup member,
	// for rendering the paper's Table 2.2 / Figure 2.3 views.
	Features  map[bits.Set]memo.FV
	Survivors []bits.Set
	Pruned    []bits.Set
}

// Optimize runs SDP on q and returns the chosen plan with overhead
// statistics.
func Optimize(q *query.Query, opts Options) (*plan.Plan, dp.Stats, error) {
	model := opts.Model
	if model == nil {
		model = cost.NewModel(q, cost.DefaultParams())
	}
	ob := obs.Or(opts.Obs)
	started := time.Now()
	s := newSDP(q, opts, ob)
	// SDP is the DP substrate with s.hook at every level barrier.
	e, err := dp.NewEngine(q, dp.BaseLeaves(q), dp.Options{
		Budget: opts.Budget,
		Ctx:    opts.Ctx,
		Model:  model,
		Hook:   s.hook,
		Obs:    ob,
		Label:  "SDP",
		Enum:   opts.Enum,
	})
	if err == nil {
		err = e.Run(q.NumRelations())
	}
	var p *plan.Plan
	if err == nil {
		p, err = e.Finalize()
	}
	var st dp.Stats
	if e != nil {
		st = e.Stats()
	}
	st.Elapsed = time.Since(started)
	dp.ObserveRun(ob, "SDP", st)
	return p, st, err
}

type sdp struct {
	q    *query.Query
	opts Options
	ob   *obs.Observer

	// Resolved metric handles (nil when telemetry is off).
	cCand, cSurvAll, cSurvRC, cSurvCS, cSurvRS *obs.Counter

	// sp is the request span carried by opts.Ctx (nil when the caller is
	// not tracing); cur is the open "sdp.level" child while the hook runs,
	// the parent of that level's "sdp.partition" spans. The hook runs
	// single-threaded at the level barrier, so cur needs no locking.
	sp  *span.Span
	cur *span.Span
}

func newSDP(q *query.Query, opts Options, ob *obs.Observer) *sdp {
	s := &sdp{q: q, opts: opts, ob: ob, sp: span.FromContext(opts.Ctx)}
	if ob != nil {
		s.cCand = ob.Counter(obs.MSkylineCandidates)
		s.cSurvAll = ob.Counter(obs.Label(obs.MSkylineSurvivors, "criterion", "all"))
		s.cSurvRC = ob.Counter(obs.Label(obs.MSkylineSurvivors, "criterion", "RC"))
		s.cSurvCS = ob.Counter(obs.Label(obs.MSkylineSurvivors, "criterion", "CS"))
		s.cSurvRS = ob.Counter(obs.Label(obs.MSkylineSurvivors, "criterion", "RS"))
	}
	return s
}

// hook is the per-level pruning filter installed into the DP engine.
func (s *sdp) hook(level int, m *memo.Memo, created []*memo.Class) error {
	n := s.q.NumRelations()
	// Standard DP at level 1 and the last two join levels; nothing to do at
	// the top level either.
	if level < 2 || level >= n-2 || len(created) == 0 {
		return nil
	}
	if s.sp != nil {
		s.cur = s.sp.Child("sdp.level")
		s.cur.SetAttr("tech", "SDP")
		s.cur.SetAttr("level", level)
	}
	switch s.opts.Scope {
	case Global:
		s.pruneGlobal(level, m, created)
	default:
		s.pruneLocal(level, m, created)
	}
	s.cur.Finish()
	s.cur = nil
	return nil
}

// pruneGlobal applies the skyline to the level's whole output — the
// ablation the paper uses to demonstrate that localized pruning matters.
func (s *sdp) pruneGlobal(level int, m *memo.Memo, created []*memo.Class) {
	mask := s.observedMask(level, "global", created)
	tr := s.levelTrace(level)
	if tr != nil {
		tr.Partitions["global"] = setsOf(created)
	}
	nSurv, nPruned := 0, 0
	for i, c := range created {
		if mask[i] {
			nSurv++
			if tr != nil {
				tr.Survivors = append(tr.Survivors, c.Set)
			}
			continue
		}
		nPruned++
		if tr != nil {
			tr.Pruned = append(tr.Pruned, c.Set)
		}
		m.Remove(c)
	}
	s.spanLevel(len(created), 0, nSurv, nPruned)
	s.recordLevel(tr)
}

// pruneLocal applies the paper's SDP pruning: split into PruneGroup and
// FreeGroup by hub-parent containment, partition the PruneGroup by hub,
// skyline within each partition, and prune JCRs that fail to survive every
// hub partition they belong to (unless rescued by an interesting-order
// partition).
func (s *sdp) pruneLocal(level int, m *memo.Memo, created []*memo.Class) {
	hubParents := s.hubParents(m, level)
	if len(hubParents) == 0 {
		return // no hubs at this level: pruning stays off
	}
	var pruneGroup, freeGroup []*memo.Class
	for _, c := range created {
		inPG := false
		for _, hp := range hubParents {
			if c.Set.Contains(hp) {
				inPG = true
				break
			}
		}
		if inPG {
			pruneGroup = append(pruneGroup, c)
		} else {
			freeGroup = append(freeGroup, c)
		}
	}
	if len(pruneGroup) == 0 {
		return
	}

	partitions := s.partition(pruneGroup, hubParents)
	tr := s.levelTrace(level)
	if tr != nil {
		tr.PruneGroup = setsOf(pruneGroup)
		tr.FreeGroup = setsOf(freeGroup)
		for label, part := range partitions {
			tr.Partitions[label] = setsOf(part)
		}
		for _, c := range pruneGroup {
			tr.Features[c.Set] = c.FeatureVector()
		}
	}

	// A JCR must survive in every hub partition it appears in. Partitions
	// are pruned and reported (counters, events) in sorted-label order.
	survive := map[bits.Set]bool{}
	seen := map[bits.Set]bool{}
	labels := sortedLabels(partitions)
	for _, label := range labels {
		part := partitions[label]
		mask := s.observedMask(level, label, part)
		for i, c := range part {
			if !seen[c.Set] {
				seen[c.Set] = true
				survive[c.Set] = true
			}
			if !mask[i] {
				survive[c.Set] = false
			}
		}
	}
	// PruneGroup members outside every partition (e.g. no root hub under
	// root-hub partitioning) are left untouched, like the FreeGroup.
	for _, c := range pruneGroup {
		if !seen[c.Set] {
			survive[c.Set] = true
		}
	}

	// Interesting-order partitions can only rescue, never kill: their
	// survivors are unioned into the level's survivor output.
	s.applyOrderPartitions(level, pruneGroup, survive, tr)

	// Guard: if the cross-partition veto rule emptied some partition
	// entirely, resurrect that partition's cheapest member so every hub
	// keeps at least one expansion and the search always completes. (The
	// paper does not discuss this corner; see DESIGN.md.)
	for _, label := range labels {
		part := partitions[label]
		any := false
		for _, c := range part {
			if survive[c.Set] {
				any = true
				break
			}
		}
		if !any {
			best := part[0]
			for _, c := range part[1:] {
				if c.BestCost() < best.BestCost() {
					best = c
				}
			}
			survive[best.Set] = true
		}
	}

	nSurv, nPruned := 0, 0
	for _, c := range pruneGroup {
		if survive[c.Set] {
			nSurv++
			if tr != nil {
				tr.Survivors = append(tr.Survivors, c.Set)
			}
			continue
		}
		nPruned++
		if tr != nil {
			tr.Pruned = append(tr.Pruned, c.Set)
		}
		m.Remove(c)
	}
	s.spanLevel(len(pruneGroup), len(freeGroup), nSurv, nPruned)
	s.recordLevel(tr)
}

// spanLevel closes the open "sdp.level" span's summary attributes.
func (s *sdp) spanLevel(pruneGroup, freeGroup, survivors, pruned int) {
	if s.cur == nil {
		return
	}
	s.cur.SetAttr("prune_group", pruneGroup)
	s.cur.SetAttr("free_group", freeGroup)
	s.cur.SetAttr("survivors", survivors)
	s.cur.SetAttr("pruned", pruned)
}

// hubParents returns the sets of the previous level's surviving classes
// that are hubs of the contracted join graph. At level 2 these are the root
// hub base relations themselves.
func (s *sdp) hubParents(m *memo.Memo, level int) []bits.Set {
	var out []bits.Set
	for _, c := range m.Level(level - 1) {
		if s.q.IsHub(c.Set) {
			out = append(out, c.Set)
		}
	}
	return out
}

// partition groups the PruneGroup by hub. A JCR containing several hubs
// appears in all the corresponding partitions.
func (s *sdp) partition(pruneGroup []*memo.Class, hubParents []bits.Set) map[string][]*memo.Class {
	parts := map[string][]*memo.Class{}
	if s.opts.Partitioning == ParentHub {
		for _, hp := range hubParents {
			label := fmt.Sprintf("hub:%v", hp)
			for _, c := range pruneGroup {
				if c.Set.Contains(hp) {
					parts[label] = append(parts[label], c)
				}
			}
		}
		return parts
	}
	rootHubs := s.q.HubRels()
	rootHubs.Each(func(h int) {
		label := fmt.Sprintf("hub:%d", h+1)
		for _, c := range pruneGroup {
			if c.Set.Has(h) {
				parts[label] = append(parts[label], c)
			}
		}
		if len(parts[label]) == 0 {
			delete(parts, label)
		}
	})
	return parts
}

// applyOrderPartitions forms one partition per relation carrying an
// interesting join column (a column in the ORDER BY's equivalence class),
// containing every PruneGroup JCR that does not include that relation, and
// unions the skyline survivors into the survivor set.
func (s *sdp) applyOrderPartitions(level int, pruneGroup []*memo.Class, survive map[bits.Set]bool, tr *LevelTrace) {
	ec := s.q.OrderEqClass()
	if ec < 0 {
		return
	}
	for r := 0; r < s.q.NumRelations(); r++ {
		if !s.relHasOrderColumn(r, ec) {
			continue
		}
		var part []*memo.Class
		for _, c := range pruneGroup {
			if !c.Set.Has(r) {
				part = append(part, c)
			}
		}
		if len(part) == 0 {
			continue
		}
		label := fmt.Sprintf("order:%d", r+1)
		if tr != nil {
			tr.Partitions[label] = setsOf(part)
		}
		mask := s.observedMask(level, label, part)
		for i, c := range part {
			if mask[i] {
				survive[c.Set] = true
			}
		}
	}
}

// relHasOrderColumn reports whether relation r has a join column in
// equivalence class ec.
func (s *sdp) relHasOrderColumn(r, ec int) bool {
	for col := range s.q.Relation(r).Cols {
		if s.q.EqClass(r, col) == ec {
			return true
		}
	}
	return false
}

// observedMask computes the survivor mask of one skyline partition under
// the configured skyline option and reports it. When telemetry will want
// them (Option 2 with an observer or request span attached) it also
// computes the per-criterion pairwise masks, which fall out of the pruning
// computation anyway. With telemetry off it is exactly the bare mask.
func (s *sdp) observedMask(level int, label string, classes []*memo.Class) []bool {
	start := time.Now()
	pts := featurePoints(classes)
	var mask []bool
	var pairMasks [][]bool
	if (s.ob != nil || s.sp != nil) && s.opts.Skyline == Option2 {
		mask, pairMasks = skyline.DisjunctivePairwiseMasks(pts, skyline.RCSPairs)
	} else {
		mask = s.maskOf(pts)
	}
	s.reportMask(level, label, len(classes), mask, pairMasks, start, time.Since(start))
	return mask
}

// reportMask reports one partition's mask: candidate/survivor counters (per
// RC/CS/RS criterion under Option 2) and — when the run carries a request
// span — an "sdp.partition" child span under the current sdp.level span,
// timed by the mask computation itself.
func (s *sdp) reportMask(level int, label string, size int, mask []bool, pairMasks [][]bool, start time.Time, d time.Duration) {
	if s.ob == nil && s.cur == nil {
		return
	}
	surv := countTrue(mask)
	var pairCounts []int
	for i := range pairMasks {
		pairCounts = append(pairCounts, countTrue(pairMasks[i]))
	}
	if s.cur != nil {
		p := s.cur.ChildAt("sdp.partition", start, d)
		p.SetAttr("tech", "SDP")
		p.SetAttr("level", level)
		p.SetAttr("label", label)
		p.SetAttr("size", size)
		p.SetAttr("survivors", surv)
		for i, n := range pairCounts {
			p.SetAttr(strings.ToLower(skyline.RCSNames[i]), n)
		}
	}
	if s.ob == nil {
		return
	}
	s.cCand.Add(int64(size))
	s.cSurvAll.Add(int64(surv))
	for i, c := range []*obs.Counter{s.cSurvRC, s.cSurvCS, s.cSurvRS} {
		if pairCounts == nil {
			break
		}
		c.Add(int64(pairCounts[i]))
	}
}

// maskOf computes the survivor mask over feature points under the
// configured skyline option.
func (s *sdp) maskOf(pts [][]float64) []bool {
	switch s.opts.Skyline {
	case Option1:
		return skyline.SFS(pts)
	case StrongSkyline:
		mask := skyline.KDominant(pts, 2)
		// k-dominance is cyclic: the strong skyline can be empty. Fall back
		// to the full skyline in that case so a partition never vanishes.
		for _, ok := range mask {
			if ok {
				return mask
			}
		}
		return skyline.SFS(pts)
	default:
		return skyline.DisjunctivePairwise(pts, skyline.RCSPairs)
	}
}

// featurePoints returns the classes' (rows, cost, selectivity) points for the
// skylines, all backed by one array: a partition costs two allocations, not
// one per class.
func featurePoints(classes []*memo.Class) [][]float64 {
	flat := make([]float64, 3*len(classes))
	pts := make([][]float64, len(classes))
	for i, c := range classes {
		fv := c.FeatureVector()
		p := flat[3*i : 3*i+3 : 3*i+3]
		p[0], p[1], p[2] = fv.Rows, fv.Cost, fv.Sel
		pts[i] = p
	}
	return pts
}

func countTrue(mask []bool) int {
	n := 0
	for _, ok := range mask {
		if ok {
			n++
		}
	}
	return n
}

// levelTrace starts the per-level pruning record — built only when the
// caller asked for a Trace.
func (s *sdp) levelTrace(level int) *LevelTrace {
	if s.opts.Trace == nil {
		return nil
	}
	return &LevelTrace{
		Level:      level,
		Partitions: map[string][]bits.Set{},
		Features:   map[bits.Set]memo.FV{},
	}
}

// recordLevel appends one level's finished pruning record to the caller's
// Trace (no-op when none was asked for).
func (s *sdp) recordLevel(tr *LevelTrace) {
	if tr == nil {
		return
	}
	s.opts.Trace.Levels = append(s.opts.Trace.Levels, *tr)
}

func setsOf(classes []*memo.Class) []bits.Set {
	out := make([]bits.Set, len(classes))
	for i, c := range classes {
		out[i] = c.Set
	}
	return out
}

func sortedLabels(parts map[string][]*memo.Class) []string {
	labels := make([]string, 0, len(parts))
	for l := range parts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

// String renders the trace as the textual iteration walkthrough of the
// paper's Figure 2.2: per level, the PruneGroup/FreeGroup split, the hub
// and order partitions, and what was pruned.
func (t *Trace) String() string {
	var sb strings.Builder
	for _, lvl := range t.Levels {
		fmt.Fprintf(&sb, "Level %d: PruneGroup=%d FreeGroup=%d survivors=%d pruned=%d\n",
			lvl.Level, len(lvl.PruneGroup), len(lvl.FreeGroup), len(lvl.Survivors), len(lvl.Pruned))
		for _, label := range sortedTraceLabels(lvl.Partitions) {
			fmt.Fprintf(&sb, "  partition %-10s %v\n", label, lvl.Partitions[label])
		}
		if len(lvl.Pruned) > 0 {
			fmt.Fprintf(&sb, "  pruned: %v\n", lvl.Pruned)
		}
	}
	return sb.String()
}

func sortedTraceLabels(parts map[string][]bits.Set) []string {
	labels := make([]string, 0, len(parts))
	for l := range parts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}
