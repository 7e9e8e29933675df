package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"sdpopt"
)

// serverTimeout and the engine names mirror the server's defaults, which the
// staged replay has to repeat because it calls the layers itself.
const serverTimeout = 30 * time.Second

// engineSpan names the span of each technique's engine after the module
// that implements it.
var engineSpan = map[string]string{
	"dp":     "dp.optimize",
	"sdp":    "core.optimize",
	"idp2":   "idp.optimize",
	"greedy": "greedy.optimize",
}

// pipeline serves a request by calling the facade stage by stage in the
// order the server's /optimize handler does, with a span around each call.
// What the handler does besides these calls (admission, its own spans,
// metrics, the flight recorder) is what server.unattributed_us measures.
type pipeline struct {
	cat        *sdpopt.Catalog
	catVersion string
	cache      *sdpopt.PlanCache
	// decide is the router of the handler pass's server, so that both see
	// the same routing state.
	decide func(rels int, shape string, remaining time.Duration) (technique string, reserve time.Duration)
	rec    *recorder
	out    bytes.Buffer
}

// pipelineResponse repeats the fields of the server's reply that cost
// something to render and encode.
type pipelineResponse struct {
	Technique      string     `json:"technique"`
	RouteReason    string     `json:"route_reason,omitempty"`
	Fingerprint    string     `json:"fingerprint"`
	CatalogVersion string     `json:"catalog_version"`
	Source         string     `json:"source"`
	Cached         bool       `json:"cached"`
	Rels           []string   `json:"rels,omitempty"`
	Cost           float64    `json:"cost,omitempty"`
	Shape          string     `json:"shape,omitempty"`
	Stats          *statsJSON `json:"stats,omitempty"`
	ServerNS       int64      `json:"server_ns"`
}

// statsJSON is the reply's optimization-overhead block.
type statsJSON struct {
	ElapsedNS      int64   `json:"elapsed_ns"`
	PlansCosted    int64   `json:"plans_costed"`
	PeakSimMB      float64 `json:"peak_sim_mb"`
	ClassesCreated int64   `json:"classes_created"`
}

// engine runs one technique inside its span, attaching the work counters.
func (p *pipeline) engine(ctx context.Context, technique string, q *sdpopt.Query) (*sdpopt.Plan, sdpopt.Stats, error) {
	id := p.rec.begin(engineSpan[technique])
	before := p.rec.heapObjects()
	plan, st, err := optimizeWith(ctx, technique, q)
	if id >= 0 {
		p.rec.count(id, "heap_objects", p.rec.heapObjects()-before)
		p.rec.count(id, "plans_costed", st.PlansCosted)
		p.rec.count(id, "pairs_considered", st.PairsConsidered)
		p.rec.count(id, "pairs_connected", st.PairsConnected)
		p.rec.count(id, "classes_created", st.Memo.ClassesCreated)
		p.rec.count(id, "classes_alive", st.Memo.ClassesAlive)
		p.rec.count(id, "paths_retained", st.Memo.PathsRetained)
		p.rec.count(id, "peak_sim_bytes", st.Memo.PeakSimBytes)
	}
	p.rec.end(id)
	return plan, st, err
}

// run mirrors the server's run: straight to the engine when the cache is
// bypassed, else through the cache with the plan stored in the canonical
// frame and relabeled for each requester.
func (p *pipeline) run(ctx context.Context, technique string, q *sdpopt.Query, noCache bool) (*sdpopt.Plan, sdpopt.Stats, string, error) {
	if noCache {
		plan, st, err := p.engine(ctx, technique, q)
		return plan, st, "uncached", err
	}
	cn := q.Canon()
	key := sdpopt.PlanCacheKey{Fingerprint: q.Fingerprint(), Technique: technique, CatalogVersion: p.catVersion}
	id := p.rec.begin("plancache.lookup")
	plan, st, src, err := p.cache.DoCtx(ctx, key, func() (*sdpopt.Plan, sdpopt.Stats, error) {
		cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), serverTimeout)
		defer cancel()
		plan, st, err := p.engine(cctx, technique, q)
		if err != nil {
			return nil, st, err
		}
		rid := p.rec.begin("plan.remap")
		plan = plan.Remap(cn.RelTo, cn.EqTo)
		p.rec.end(rid)
		return plan, st, nil
	})
	if src.String() == "miss" {
		p.rec.rename(id, "plancache.fill")
	}
	p.rec.end(id)
	if err != nil {
		return nil, st, src.String(), err
	}
	rid := p.rec.begin("plan.remap")
	plan = plan.Remap(cn.RelFrom, cn.EqFrom)
	p.rec.end(rid)
	return plan, st, src.String(), nil
}

// serve handles one request body and returns the cache source and the
// technique that answered.
func (p *pipeline) serve(trace int, body []byte) (source, technique string, err error) {
	started := time.Now()
	p.rec.trace = trace
	root := p.rec.begin("request")
	defer p.rec.end(root)

	id := p.rec.begin("server.decode")
	var req optimizeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	p.rec.end(id)
	if err != nil {
		return "", "", err
	}

	var q *sdpopt.Query
	if req.SQL != "" {
		id = p.rec.begin("parse.sql")
		q, err = sdpopt.ParseSQL(p.cat, req.SQL)
	} else {
		id = p.rec.begin("query.build")
		spec := req.Query
		preds := make([]sdpopt.Pred, len(spec.Preds))
		for i, sp := range spec.Preds {
			preds[i] = sdpopt.Pred{LeftRel: sp.LeftRel, LeftCol: sp.LeftCol, RightRel: sp.RightRel, RightCol: sp.RightCol}
		}
		filters := make([]sdpopt.Filter, len(spec.Filters))
		for i, f := range spec.Filters {
			filters[i] = sdpopt.Filter{Rel: f.Rel, Col: f.Col, Bound: f.Bound}
		}
		var ob *sdpopt.OrderSpec
		if spec.OrderBy != nil {
			ob = &sdpopt.OrderSpec{Rel: spec.OrderBy.Rel, Col: spec.OrderBy.Col}
		}
		q, err = sdpopt.NewFilteredQuery(p.cat, spec.Rels, preds, filters, ob)
	}
	p.rec.end(id)
	if err != nil {
		return "", "", err
	}

	timeout := serverTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	id = p.rec.begin("query.shape")
	shape := q.Shape()
	p.rec.end(id)

	technique = req.Technique
	var reserve time.Duration
	reason := "explicit"
	if technique == "auto" {
		id = p.rec.begin("route.decide")
		technique, reserve = p.decide(q.NumRelations(), shape, timeout)
		p.rec.end(id)
		reason = "auto"
	}

	id = p.rec.begin("query.canon")
	q.Canon()
	p.rec.end(id)
	id = p.rec.begin("query.fingerprint")
	fingerprint := q.Fingerprint()
	p.rec.end(id)

	var plan *sdpopt.Plan
	var st sdpopt.Stats
	if reserve > 0 && technique != "greedy" {
		// The router armed the fallback: the engine gets the deadline less
		// the reserve, and greedy answers if that slice runs out.
		ectx, ecancel := context.WithTimeout(ctx, timeout-reserve)
		plan, st, source, err = p.run(ectx, technique, q, req.NoCache)
		ecancel()
		if errors.Is(err, sdpopt.ErrCanceled) || errors.Is(err, sdpopt.ErrBudget) {
			technique = "greedy"
			plan, st, source, err = p.run(ctx, technique, q, req.NoCache)
		}
	} else {
		plan, st, source, err = p.run(ctx, technique, q, req.NoCache)
	}
	if err != nil {
		return source, technique, fmt.Errorf("%s: %w", technique, err)
	}

	id = p.rec.begin("plan.render")
	resp := pipelineResponse{
		Technique: technique, RouteReason: reason, Fingerprint: fingerprint, CatalogVersion: p.catVersion,
		Source: source, Cached: source == "hit" || source == "dedup", Cost: plan.Cost,
		Shape: sdpopt.PlanShape(q, plan),
	}
	for i := range q.Rels {
		resp.Rels = append(resp.Rels, q.Relation(i).Name)
	}
	p.rec.end(id)

	id = p.rec.begin("server.encode")
	resp.Stats = &statsJSON{
		ElapsedNS: st.Elapsed.Nanoseconds(), PlansCosted: st.PlansCosted,
		PeakSimMB: float64(st.Memo.PeakSimBytes) / (1 << 20), ClassesCreated: st.Memo.ClassesCreated,
	}
	resp.ServerNS = time.Since(started).Nanoseconds()
	p.out.Reset()
	enc := json.NewEncoder(&p.out)
	enc.SetIndent("", "  ")
	err = enc.Encode(&resp)
	p.rec.end(id)
	return source, technique, err
}
