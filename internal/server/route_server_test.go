package server

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"sdpopt/internal/dp"
	"sdpopt/internal/obs"
	"sdpopt/internal/plan"
	"sdpopt/internal/plancache"
	"sdpopt/internal/query"
	"sdpopt/internal/route"
	"sdpopt/internal/tech"
	"sdpopt/internal/workload"
)

// topoSpec instantiates one deterministic workload query and re-serializes
// it as the request's query-JSON shape.
func topoSpec(t *testing.T, topo workload.Topology, n int) *QuerySpec {
	t.Helper()
	q, err := workload.One(workload.Spec{
		Cat: workload.PaperSchema(), Topology: topo, NumRelations: n, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := &QuerySpec{Rels: q.Rels}
	for _, p := range q.Preds {
		spec.Preds = append(spec.Preds, PredSpec{
			LeftRel: p.LeftRel, LeftCol: p.LeftCol, RightRel: p.RightRel, RightCol: p.RightCol,
		})
	}
	return spec
}

// TestRequestTechniqueValidation: unknown technique values get a 400 that
// lists the valid set, which includes "auto".
func TestRequestTechniqueValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	code, resp := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL, Technique: "quantum"})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown technique: code %d, want 400", code)
	}
	for _, want := range []string{"quantum", "auto", "sdp", "greedy"} {
		if !strings.Contains(resp.Error, want) {
			t.Errorf("400 body %q does not mention %q", resp.Error, want)
		}
	}

	// "auto" itself is valid and resolves to a real engine.
	code, resp = postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL, Technique: "auto"})
	if code != http.StatusOK {
		t.Fatalf("auto: code %d, error %q", code, resp.Error)
	}
	if resp.Technique == "auto" || resp.Technique == "" {
		t.Fatalf("auto not resolved: technique %q", resp.Technique)
	}
	if !strings.HasPrefix(resp.RouteReason, "auto:") {
		t.Fatalf("route_reason = %q, want an auto:* reason", resp.RouteReason)
	}
}

// TestAutoRoutesByShape: the base ladder over real served queries — chains
// and small queries take the greedy fast path, mid-size stars the SDP
// default — and every decision lands in /debug/routes.json and the
// decision counter, including for cache hits.
func TestAutoRoutesByShape(t *testing.T) {
	ob := obs.New()
	cache := plancache.New(plancache.Options{Obs: ob})
	s, ts := newTestServer(t, Options{Cache: cache, Obs: ob})

	cases := []struct {
		name   string
		spec   *QuerySpec
		tech   string
		reason string
	}{
		{"chain-10", topoSpec(t, workload.Chain, 10), "greedy", route.ReasonFastPath},
		{"star-4", topoSpec(t, workload.Star, 4), "greedy", route.ReasonFastPath},
		{"star-9", topoSpec(t, workload.Star, 9), "sdp", route.ReasonDefault},
	}
	for _, c := range cases {
		code, resp := postOptimize(t, ts.URL, OptimizeRequest{Technique: "auto", Query: c.spec})
		if code != http.StatusOK {
			t.Fatalf("%s: code %d, error %q", c.name, code, resp.Error)
		}
		if resp.Technique != c.tech || resp.RouteReason != c.reason {
			t.Errorf("%s: routed (%s, %s), want (%s, %s)",
				c.name, resp.Technique, resp.RouteReason, c.tech, c.reason)
		}
		if resp.Cost <= 0 || resp.Shape == "" {
			t.Errorf("%s: no plan in routed response: %+v", c.name, resp)
		}
	}

	// A repeat of the star-9 query is a cache hit — and the hit must still
	// record its route.
	code, resp := postOptimize(t, ts.URL, OptimizeRequest{Technique: "auto", Query: cases[2].spec})
	if code != http.StatusOK || resp.Source != "hit" {
		t.Fatalf("repeat: code %d source %q, want 200 hit", code, resp.Source)
	}
	if resp.RouteReason != route.ReasonDefault {
		t.Errorf("hit route_reason = %q, want %q", resp.RouteReason, route.ReasonDefault)
	}

	d := s.Router().Snapshot()
	var total int64
	for _, dc := range d.Decisions {
		total += dc.Count
	}
	if total != 4 {
		t.Errorf("router counted %d decisions, want 4: %+v", total, d.Decisions)
	}

	// The decision counter reaches /metrics with route/reason/source labels.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := mresp.Body.Read(buf)
	metrics := string(buf[:n])
	if !strings.Contains(metrics, obs.MRouteDecisions) {
		t.Error("route decision counter missing from /metrics")
	}
}

// TestExplicitTechniqueRecordsRoute: requests that name their engine are
// tallied under the "explicit" reason and carry it in the response.
func TestExplicitTechniqueRecordsRoute(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	code, resp := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL, Technique: "greedy"})
	if code != http.StatusOK {
		t.Fatalf("code %d, error %q", code, resp.Error)
	}
	if resp.RouteReason != route.ReasonExplicit {
		t.Errorf("route_reason = %q, want %q", resp.RouteReason, route.ReasonExplicit)
	}
	d := s.Router().Snapshot()
	if len(d.Decisions) != 1 || d.Decisions[0].Reason != route.ReasonExplicit {
		t.Errorf("decisions = %+v, want one explicit tally", d.Decisions)
	}
}

// TestAutoDeadlineDowngrade: deadlines the SDP prior cannot fit are
// downgraded pre-flight — to the IDP2 middle rung while it fits, all the
// way to greedy when it does not — and the request succeeds with a plan
// and a reason rather than timing out.
func TestAutoDeadlineDowngrade(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// Star-13 sits in the 13-16 band: the cold SDP prior (60ms ×2 safety)
	// is over a 50ms deadline but IDP2's (15ms ×2) fits it; a 20ms
	// deadline fits neither and walks down to greedy.
	// The 20ms case must run first: once the 50ms case has executed IDP2
	// and the profile learned its real single-digit-ms latency, a 20ms
	// deadline legitimately fits IDP2 too.
	cases := []struct {
		timeoutMS int64
		tech      string
	}{
		{20, tech.Greedy},
		{50, tech.IDP2},
	}
	for _, c := range cases {
		code, resp := postOptimize(t, ts.URL, OptimizeRequest{
			Technique: "auto",
			Query:     topoSpec(t, workload.Star, 13),
			TimeoutMS: c.timeoutMS,
			NoCache:   true,
		})
		if code != http.StatusOK {
			t.Fatalf("timeout %dms: code %d, error %q — a routed request must not 504 on a tight deadline",
				c.timeoutMS, code, resp.Error)
		}
		if resp.Technique != c.tech || resp.RouteReason != route.ReasonDeadlineDowngrade {
			t.Fatalf("timeout %dms: routed (%s, %s), want (%s, %s)",
				c.timeoutMS, resp.Technique, resp.RouteReason, c.tech, route.ReasonDeadlineDowngrade)
		}
		if resp.Cost <= 0 {
			t.Fatalf("timeout %dms: downgraded request returned no plan", c.timeoutMS)
		}
	}
}

// TestAutoMidFlightDemote is the acceptance-criteria path: the router's
// learned profile says the engine fits the deadline, the engine then blows
// its slice mid-flight, and the request STILL returns 200 with a greedy
// plan and a route_reason naming the fallback — never a 504 caused by
// routing.
func TestAutoMidFlightDemote(t *testing.T) {
	ob := obs.New()
	s, ts := newTestServer(t, Options{Obs: ob})
	// An SDP that runs until its context is done: it overruns any slice, on
	// any host, by construction. Every other technique runs for real.
	s.runEngine = func(ctx context.Context, name string, q *query.Query, o tech.Options) (*plan.Plan, dp.Stats, error) {
		if name != tech.SDP {
			return tech.Run(ctx, name, q, o)
		}
		<-ctx.Done()
		return nil, dp.Stats{}, dp.CtxErr(ctx)
	}
	// A 10-relation star routes to the SDP default. The 200ms deadline
	// leaves a 25ms reserve, which greedy fits many times over.
	const rels, timeoutMS = 10, 200
	star := topoSpec(t, workload.Star, rels)
	band := route.Band(rels)

	// Teach the router a wildly optimistic SDP latency, so the pre-flight
	// check happily routes the star into the deadline, and a small IDP2
	// one, so the rung below SDP fits the deadline on its merits rather than
	// by how its cold prior happens to compare with it.
	s.Router().Observe(tech.SDP, "star", band, time.Millisecond, false)
	s.Router().Observe(tech.IDP2, "star", band, time.Millisecond, false)

	code, resp := postOptimize(t, ts.URL, OptimizeRequest{
		Technique: "auto",
		Query:     star,
		TimeoutMS: timeoutMS,
		NoCache:   true,
	})
	if code != http.StatusOK {
		t.Fatalf("code %d, error %q — the mid-flight fallback must rescue the request", code, resp.Error)
	}
	if resp.Technique != "greedy" || resp.RouteReason != route.ReasonDeadlineDemote {
		t.Fatalf("routed (%s, %s), want (greedy, %s)", resp.Technique, resp.RouteReason, route.ReasonDeadlineDemote)
	}
	if resp.Cost <= 0 {
		t.Fatal("demoted request returned no plan")
	}

	// The demotion is pinned into the flight recorder's notable ring and
	// counted as a fallback.
	fd := s.Flight().Snapshot()
	if len(fd.Notable) == 0 {
		t.Error("no pinned trace for the demotion")
	}
	if got := ob.Counter(obs.MRouteFallbacks).Value(); got != 1 {
		t.Errorf("fallback counter = %d, want 1", got)
	}
	if d := s.Router().Snapshot(); d.Fallbacks != 1 {
		t.Errorf("router fallback tally = %d, want 1", d.Fallbacks)
	}

	// The timed-out slice fed the latency profile as an inflated lower
	// bound, so the same request now downgrades pre-flight — onto the
	// IDP2 rung, whose estimate fits the deadline SDP just blew.
	code, resp = postOptimize(t, ts.URL, OptimizeRequest{
		Technique: "auto",
		Query:     star,
		TimeoutMS: timeoutMS,
		NoCache:   true,
	})
	if code != http.StatusOK {
		t.Fatalf("second request: code %d, error %q", code, resp.Error)
	}
	if resp.Technique != tech.IDP2 || resp.RouteReason != route.ReasonDeadlineDowngrade {
		t.Fatalf("second request routed (%s, %s), want pre-flight (%s, %s)",
			resp.Technique, resp.RouteReason, tech.IDP2, route.ReasonDeadlineDowngrade)
	}
}

// TestAutoRegretPromote: a fast-path key whose shadow-measured ρ degraded
// is served by SDP instead, with the regret-promotion reason.
func TestAutoRegretPromote(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for i := 0; i < 4; i++ {
		s.Router().NoteRegret(tech.Greedy, "chain", route.Band(10), 3.0)
	}
	code, resp := postOptimize(t, ts.URL, OptimizeRequest{
		Technique: "auto",
		Query:     topoSpec(t, workload.Chain, 10),
	})
	if code != http.StatusOK {
		t.Fatalf("code %d, error %q", code, resp.Error)
	}
	if resp.Technique != "sdp" || resp.RouteReason != route.ReasonRegretPromote {
		t.Fatalf("routed (%s, %s), want (sdp, %s)", resp.Technique, resp.RouteReason, route.ReasonRegretPromote)
	}
}

// TestDebugRoutesEndpoints: both routing debug surfaces respond.
func TestDebugRoutesEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/debug/routes", "/debug/routes.json"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: code %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
