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
	"slices"
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
	e.Release()
	st.Elapsed = time.Since(started)
	dp.ObserveRun(ob, "SDP", st)
	return p, st, err
}

type sdp struct {
	q    *query.Query
	opts Options
	ob   *obs.Observer

	// Resolved metric handles (nil when telemetry is off); cSurvPair
	// follows skyline.RCSNames.
	cCand, cSurvAll *obs.Counter
	cSurvPair       []*obs.Counter

	// sp is the request span carried by opts.Ctx (nil when the caller is
	// not tracing); cur is the open "sdp.level" child while the hook runs,
	// the parent of that level's "sdp.partition" spans. The hook runs
	// single-threaded at the level barrier, so cur needs no locking.
	sp  *span.Span
	cur *span.Span

	// hubs are the root hubs and orders the relations carrying the ORDER
	// BY's equivalence class, each with its partition label, computed once
	// per query. hubs is in label order ("hub:10" before "hub:2"), the order
	// in which the starvation guard visits partitions.
	hubs, orders []labeled

	// The level being pruned, rebuilt by partition on every level into
	// reused buffers: prev holds the previous level's classes; group holds
	// the JCRs being pruned and free the rest; parts lists the group's
	// partitions, hub partitions first in label order, then the order
	// partitions; members backs the parts' index lists; feats holds the
	// group's [R,C,S] points; survive is the verdict per group position; sky
	// holds the Option-2 skyline's buffers.
	parents     []bits.Set
	prev        []*memo.Class
	group, free []*memo.Class
	parts       []partition
	members     []int
	feats       []float64
	pts         [][]float64
	survive     []bool
	sky         skyline.Scratch
}

// labeled is a relation with the label of the partition it defines.
type labeled struct {
	rel   int
	label string
}

// partition is one skyline partition of a level: its members are positions
// in the group being pruned. An order partition can only rescue a JCR; a hub
// partition can veto it.
type partition struct {
	label   string
	members []int
	order   bool
}

func newSDP(q *query.Query, opts Options, ob *obs.Observer) *sdp {
	s := &sdp{q: q, opts: opts, ob: ob, sp: span.FromContext(opts.Ctx)}
	if ob != nil {
		s.cCand = ob.Counter(obs.MSkylineCandidates)
		s.cSurvAll = ob.Counter(obs.Label(obs.MSkylineSurvivors, "criterion", "all"))
		for _, name := range skyline.RCSNames {
			s.cSurvPair = append(s.cSurvPair, ob.Counter(obs.Label(obs.MSkylineSurvivors, "criterion", name)))
		}
	}
	q.HubRels().Each(func(h int) { s.hubs = append(s.hubs, labeled{h, fmt.Sprintf("hub:%d", h+1)}) })
	slices.SortFunc(s.hubs, func(a, b labeled) int { return strings.Compare(a.label, b.label) })
	if ec := q.OrderEqClass(); ec >= 0 {
		for r := range q.NumRelations() {
			for col := range q.Relation(r).Cols {
				if q.EqClass(r, col) == ec {
					s.orders = append(s.orders, labeled{r, fmt.Sprintf("order:%d", r+1)})
					break
				}
			}
		}
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
	if s.partition(m, level, created) {
		s.prune(level, m)
	}
	s.cur.Finish()
	s.cur = nil
	return nil
}

// partition splits the level into the group to prune and the rest and
// lists the group's partitions. Under Global scope — the ablation showing
// that localized pruning matters — the group is the whole level, one
// partition "global". Under Local scope it is the PruneGroup, the JCRs
// containing a hub of the previous level, partitioned by root or parent hub
// (a JCR containing several hubs is in each of their partitions), plus one
// partition per relation carrying the ORDER BY's class, of the PruneGroup
// JCRs without that relation. Empty partitions are left out. It reports
// false when the level has nothing to prune.
func (s *sdp) partition(m *memo.Memo, level int, created []*memo.Class) bool {
	s.group, s.free, s.parts, s.members = s.group[:0], s.free[:0], s.parts[:0], s.members[:0]
	if s.opts.Scope == Global {
		s.group = append(s.group, created...)
		s.addPartition("global", false, func(*memo.Class) bool { return true })
		return true
	}
	// Hub parents: the previous level's survivors that are hubs of the
	// contracted join graph; at level 2, the root hubs themselves.
	s.parents = s.parents[:0]
	s.prev = m.AppendLevel(s.prev[:0], level-1)
	for _, c := range s.prev {
		if s.q.IsHub(c.Set) {
			s.parents = append(s.parents, c.Set)
		}
	}
	for _, c := range created {
		if slices.ContainsFunc(s.parents, c.Set.Contains) {
			s.group = append(s.group, c)
		} else {
			s.free = append(s.free, c)
		}
	}
	if len(s.group) == 0 {
		return false // no hubs at this level, or none in its JCRs
	}
	if s.opts.Partitioning == ParentHub {
		for _, hp := range s.parents {
			s.addPartition("hub:"+hp.String(), false, func(c *memo.Class) bool { return c.Set.Contains(hp) })
		}
		slices.SortFunc(s.parts, func(a, b partition) int { return strings.Compare(a.label, b.label) })
	} else {
		for _, h := range s.hubs {
			s.addPartition(h.label, false, func(c *memo.Class) bool { return c.Set.Has(h.rel) })
		}
	}
	for _, o := range s.orders {
		s.addPartition(o.label, true, func(c *memo.Class) bool { return !c.Set.Has(o.rel) })
	}
	return true
}

// addPartition appends the partition of the group's JCRs that in accepts,
// unless there are none.
func (s *sdp) addPartition(label string, order bool, in func(*memo.Class) bool) {
	lo := len(s.members)
	for i, c := range s.group {
		if in(c) {
			s.members = append(s.members, i)
		}
	}
	if hi := len(s.members); hi > lo {
		s.parts = append(s.parts, partition{label: label, members: s.members[lo:hi:hi], order: order})
	}
}

// prune applies the level rule to the group. A JCR survives unless it
// falls off the skyline of a hub partition it is in (the veto); surviving
// any order partition's skyline rescues it; and a hub partition the veto
// left empty gets its cheapest member back (the guard: the paper does not
// discuss this corner, see DESIGN.md). Partitions are pruned, reported and
// guarded in list order. The losers leave the memo.
func (s *sdp) prune(level int, m *memo.Memo) {
	s.feats = s.feats[:0]
	s.survive = s.survive[:0]
	for _, c := range s.group {
		fv := c.FeatureVector()
		s.feats = append(s.feats, fv.Rows, fv.Cost, fv.Sel)
		s.survive = append(s.survive, true)
	}
	survive := s.survive
	for _, p := range s.parts {
		s.pts = s.pts[:0]
		for _, i := range p.members {
			s.pts = append(s.pts, s.feats[3*i:3*i+3:3*i+3])
		}
		// A hub partition can only veto a JCR, an order partition only
		// rescue one.
		for k, ok := range s.mask(level, p.label, s.pts) {
			if ok == p.order {
				survive[p.members[k]] = ok
			}
		}
	}
	for _, p := range s.parts {
		if p.order || slices.ContainsFunc(p.members, func(i int) bool { return survive[i] }) {
			continue
		}
		best := p.members[0]
		for _, i := range p.members[1:] {
			if s.group[i].BestCost() < s.group[best].BestCost() {
				best = i
			}
		}
		survive[best] = true
	}

	var tr *LevelTrace
	if s.opts.Trace != nil {
		tr = &LevelTrace{
			Level:      level,
			PruneGroup: setsOf(s.group),
			Partitions: make(map[string][]bits.Set, len(s.parts)),
			Features:   make(map[bits.Set]memo.FV, len(s.group)),
		}
		if s.opts.Scope == Local {
			tr.FreeGroup = setsOf(s.free)
		}
		for _, p := range s.parts {
			sets := make([]bits.Set, len(p.members))
			for k, i := range p.members {
				sets[k] = s.group[i].Set
			}
			tr.Partitions[p.label] = sets
		}
	}
	nSurv := 0
	for i, c := range s.group {
		if tr != nil {
			tr.Features[c.Set] = c.FeatureVector()
			if survive[i] {
				tr.Survivors = append(tr.Survivors, c.Set)
			} else {
				tr.Pruned = append(tr.Pruned, c.Set)
			}
		}
		if survive[i] {
			nSurv++
		} else {
			m.Remove(c)
		}
	}
	if s.cur != nil {
		s.cur.SetAttr("prune_group", len(s.group))
		s.cur.SetAttr("free_group", len(s.free))
		s.cur.SetAttr("survivors", nSurv)
		s.cur.SetAttr("pruned", len(s.group)-nSurv)
	}
	if tr != nil {
		s.opts.Trace.Levels = append(s.opts.Trace.Levels, *tr)
	}
}

// mask computes one partition's survivor mask under the configured skyline
// option and reports it: candidate/survivor counters (per RC/CS/RS
// criterion under Option 2, whose per-pair masks fall out of the pruning
// computation) and — when the run carries a request span — an
// "sdp.partition" child span under the current sdp.level span, timed by the
// mask computation itself.
func (s *sdp) mask(level int, label string, pts [][]float64) []bool {
	start := time.Now()
	var mask []bool
	var pairMasks [][]bool
	switch s.opts.Skyline {
	case Option1:
		mask = skyline.BNL(pts)
	case StrongSkyline:
		// k-dominance is cyclic: the strong skyline can be empty. Fall back
		// to the full skyline in that case so a partition never vanishes.
		if mask = skyline.KDominant(pts, 2); !slices.Contains(mask, true) {
			mask = skyline.BNL(pts)
		}
	default:
		mask, pairMasks = s.sky.DisjunctivePairwiseMasks(pts, skyline.RCSPairs)
	}
	d := time.Since(start)
	var p *span.Span
	if s.cur != nil {
		p = s.cur.ChildAt("sdp.partition", start, d)
		p.SetAttr("tech", "SDP")
		p.SetAttr("level", level)
		p.SetAttr("label", label)
		p.SetAttr("size", len(pts))
		p.SetAttr("survivors", countTrue(mask))
	}
	if s.ob != nil {
		s.cCand.Add(int64(len(pts)))
		s.cSurvAll.Add(int64(countTrue(mask)))
	}
	for i, pm := range pairMasks {
		n := countTrue(pm)
		if p != nil {
			p.SetAttr(strings.ToLower(skyline.RCSNames[i]), n)
		}
		if s.ob != nil {
			s.cSurvPair[i].Add(int64(n))
		}
	}
	return mask
}

func setsOf(classes []*memo.Class) []bits.Set {
	out := make([]bits.Set, len(classes))
	for i, c := range classes {
		out[i] = c.Set
	}
	return out
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
