// Package tech is the one name → engine table. Every layer that runs an
// optimization by technique name reads it: the HTTP server, the router's
// downgrade ladder, the regret shadow's reference, the robustness sweep, the
// facade's cached path and the harness's default rows.
//
// The table holds the paper's robust set, strongest first: exhaustive DP
// where it is affordable, SDP beyond that, and IDP2 and greedy operator
// ordering as the cheaper fallbacks. These are exactly the router's four
// rungs. The comparison rows the paper argues against (IDP1, left-deep DP,
// the randomized and genetic searches, SDP option variants) are built where
// they are used, in internal/harness.
package tech

import (
	"context"
	"fmt"

	"sdpopt/internal/core"
	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/greedy"
	"sdpopt/internal/idp"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
)

// Technique names.
const (
	DP     = "dp"
	SDP    = "sdp"
	IDP2   = "idp2"
	Greedy = "greedy"
)

// Options is what a caller may set on any table entry. Each entry passes
// every field its engine supports: greedy has no memory budget (its state is
// linear in the query).
type Options struct {
	// Budget is the simulated-memory feasibility limit in bytes
	// (0 = unlimited); exceeding it aborts with memo.ErrBudget.
	Budget int64
	// Obs receives metrics and trace events; nil falls back to the process
	// default observer.
	Obs *obs.Observer
	// Model supplies costing; nil creates a fresh default model per run.
	Model *cost.Model
}

// entry is one table row: the engine at its paper-default configuration,
// with the run's context as its cancellation and span source.
type entry struct {
	name string
	run  func(ctx context.Context, q *query.Query, o Options) (*plan.Plan, dp.Stats, error)
}

var table = []entry{
	{DP, func(ctx context.Context, q *query.Query, o Options) (*plan.Plan, dp.Stats, error) {
		return dp.Optimize(q, dp.Options{Budget: o.Budget, Ctx: ctx, Obs: o.Obs, Model: o.Model})
	}},
	{SDP, func(ctx context.Context, q *query.Query, o Options) (*plan.Plan, dp.Stats, error) {
		opts := core.DefaultOptions()
		opts.Budget, opts.Ctx, opts.Obs, opts.Model = o.Budget, ctx, o.Obs, o.Model
		return core.Optimize(q, opts)
	}},
	{IDP2, func(ctx context.Context, q *query.Query, o Options) (*plan.Plan, dp.Stats, error) {
		opts := idp.DefaultOptions()
		opts.Budget, opts.Ctx, opts.Obs, opts.Model = o.Budget, ctx, o.Obs, o.Model
		return idp.Optimize2(q, opts)
	}},
	// GOO polls the context once per merge step.
	{Greedy, func(ctx context.Context, q *query.Query, o Options) (*plan.Plan, dp.Stats, error) {
		return greedy.Optimize(q, greedy.Options{Ctx: ctx, Obs: o.Obs, Model: o.Model})
	}},
}

// Names lists the table's techniques, strongest first.
func Names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

// Run optimizes q with the named technique. ctx bounds the run: its
// cancellation or deadline aborts the engine with dp.ErrCanceled.
//
// When ctx carries a span, the engine runs inside an "optimize" child span
// that it hangs its own per-level spans off, and the run's summary
// statistics land on that span as attributes. Without a span in ctx no span
// is opened.
func Run(ctx context.Context, name string, q *query.Query, o Options) (*plan.Plan, dp.Stats, error) {
	var e *entry
	for i := range table {
		if table[i].name == name {
			e = &table[i]
		}
	}
	if e == nil {
		return nil, dp.Stats{}, fmt.Errorf("tech: unknown technique %q (valid: %v)", name, Names())
	}
	sp := span.FromContext(ctx)
	if sp == nil {
		return e.run(ctx, q, o)
	}
	os := sp.Child("optimize")
	os.SetAttr("tech", name)
	p, st, err := e.run(span.NewContext(ctx, os), q, o)
	os.SetAttr("dur_ns", st.Elapsed.Nanoseconds())
	os.SetAttr("plans_costed", st.PlansCosted)
	os.SetAttr("classes_created", st.Memo.ClassesCreated)
	os.SetAttr("peak_sim_bytes", st.Memo.PeakSimBytes)
	if p != nil {
		os.SetAttr("cost", p.Cost)
	}
	os.FinishErr(err)
	return p, st, err
}
