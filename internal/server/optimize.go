package server

import (
	"context"
	"fmt"

	"sdpopt/internal/core"
	"sdpopt/internal/dp"
	"sdpopt/internal/genetic"
	"sdpopt/internal/greedy"
	"sdpopt/internal/idp"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/randomized"
)

// Techniques lists the optimizer names accepted by Optimize. The empty name
// selects "sdp".
func Techniques() []string {
	return []string{"sdp", "dp", "dp/ld", "idp", "idp2", "greedy", "genetic", "ii", "sa"}
}

// RequestTechniques lists the values the /optimize "technique" field
// accepts: every engine name plus "auto", which asks the server's router to
// pick per request (see internal/route).
func RequestTechniques() []string {
	return append([]string{"auto"}, Techniques()...)
}

// KnownTechnique reports whether name is a valid engine selector for
// Optimize. "auto" is not one — it is resolved by the serving layer before
// dispatch (see KnownRequestTechnique).
func KnownTechnique(name string) bool {
	if name == "" {
		return true
	}
	for _, t := range Techniques() {
		if t == name {
			return true
		}
	}
	return false
}

// KnownRequestTechnique reports whether name is valid in an /optimize
// request's "technique" field.
func KnownRequestTechnique(name string) bool {
	return name == "auto" || KnownTechnique(name)
}

// Optimize dispatches one optimization by technique name, threading the
// context's deadline into the engines' cancellation path (dp.ErrCanceled)
// and budget into their memory-feasibility path (memo.ErrBudget). The
// heuristics without an incremental abort point (genetic, ii, sa) check the
// context once up front — they finish in milliseconds, so a mid-run poll
// would never fire before completion anyway; greedy polls once per merge
// step.
//
// workers > 1 fans each enumeration level of the DP-substrate techniques
// (sdp, dp, dp/ld) out over that many workers (dp.Options.Workers); results
// are bit-for-bit identical to the sequential run's, so the knob never
// changes a response, only its latency. Techniques without a DP substrate
// ignore it.
//
// OptimizeTraced is Optimize under span tracing: when ctx carries a request
// span, the dispatch runs inside an "optimize" child span that the engines
// then hang their per-level / per-partition spans off, and the optimizer's
// summary statistics — including the enumerator the engine resolved to, as
// "enum" — land on it as attributes. Without a span in ctx it is exactly
// Optimize.
func OptimizeTraced(ctx context.Context, technique string, q *query.Query, budget int64, workers int, ob *obs.Observer) (*plan.Plan, dp.Stats, error) {
	sp := span.FromContext(ctx)
	if sp == nil {
		return Optimize(ctx, technique, q, budget, workers, ob)
	}
	tech := technique
	if tech == "" {
		tech = "sdp"
	}
	os := sp.Child("optimize")
	os.SetAttr("tech", tech)
	os.SetAttr("workers", workers)
	p, st, err := Optimize(span.NewContext(ctx, os), technique, q, budget, workers, ob)
	os.SetAttr("dur_ns", st.Elapsed.Nanoseconds())
	os.SetAttr("plans_costed", st.PlansCosted)
	os.SetAttr("classes_created", st.Memo.ClassesCreated)
	os.SetAttr("peak_sim_bytes", st.Memo.PeakSimBytes)
	if st.Enumerator != "" {
		os.SetAttr("enum", st.Enumerator)
	}
	if p != nil {
		os.SetAttr("cost", p.Cost)
	}
	os.FinishErr(err)
	return p, st, err
}

func Optimize(ctx context.Context, technique string, q *query.Query, budget int64, workers int, ob *obs.Observer) (*plan.Plan, dp.Stats, error) {
	switch technique {
	case "", "sdp":
		opts := core.DefaultOptions()
		opts.Budget = budget
		opts.Ctx = ctx
		opts.Workers = workers
		opts.Obs = ob
		return core.Optimize(q, opts)
	case "dp":
		return dp.Optimize(q, dp.Options{Budget: budget, Ctx: ctx, Workers: workers, Obs: ob})
	case "dp/ld":
		return dp.Optimize(q, dp.Options{Budget: budget, Ctx: ctx, Workers: workers, LeftDeepOnly: true, Obs: ob})
	case "idp":
		opts := idp.DefaultOptions()
		opts.Budget = budget
		opts.Ctx = ctx
		opts.Obs = ob
		return idp.Optimize(q, opts)
	case "idp2":
		opts := idp.DefaultOptions()
		opts.Budget = budget
		opts.Ctx = ctx
		opts.Obs = ob
		return idp.Optimize2(q, opts)
	case "greedy":
		// GOO polls the context itself and reports through the same
		// obs/span/stats channels as the enumeration engines, so routed
		// fast-path serves appear in traces like any other.
		return greedy.Optimize(q, greedy.Options{Ctx: ctx, Obs: ob})
	case "genetic":
		if err := dp.CtxErr(ctx); err != nil {
			return nil, dp.Stats{}, err
		}
		return genetic.Optimize(q, genetic.Options{})
	case "ii":
		if err := dp.CtxErr(ctx); err != nil {
			return nil, dp.Stats{}, err
		}
		return randomized.Optimize(q, randomized.Options{Algorithm: randomized.II})
	case "sa":
		if err := dp.CtxErr(ctx); err != nil {
			return nil, dp.Stats{}, err
		}
		return randomized.Optimize(q, randomized.Options{Algorithm: randomized.SA})
	}
	return nil, dp.Stats{}, fmt.Errorf("server: unknown technique %q (valid: %v)", technique, Techniques())
}
