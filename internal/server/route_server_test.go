package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"sdpopt/internal/catalog"
	"sdpopt/internal/obs"
	"sdpopt/internal/plancache"
	"sdpopt/internal/route"
	"sdpopt/internal/tech"
	"sdpopt/internal/workload"
)

// topoSpec instantiates one deterministic workload query and re-serializes
// it as the request's query-JSON shape.
func topoSpec(t *testing.T, topo workload.Topology, n int) *QuerySpec {
	t.Helper()
	return topoSpecOn(t, workload.PaperSchema(), topo, n)
}

// topoSpecOn is topoSpec over a catalog other than the servers' default.
func topoSpecOn(t *testing.T, cat *catalog.Catalog, topo workload.Topology, n int) *QuerySpec {
	t.Helper()
	q, err := workload.One(workload.Spec{
		Cat: cat, Topology: topo, NumRelations: n, Seed: 7,
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
	// HeavyRels above the widest probe keeps the star on the SDP default
	// instead of the IDP2 heavy-tail rung, so the demotion path has the
	// slowest engine the catalog offers to blow its slice. The paper schema's
	// hub runs out of join columns at 25 relations; the extended one does not.
	cat := workload.ExtendedSchema(30)
	s, ts := newTestServer(t, Options{Cat: cat, Obs: ob, Route: route.Options{HeavyRels: 31}})

	// The deadline is derived from what the engines take on this host, in
	// this build, rather than from a constant that assumes how slow SDP is —
	// and so is the query: the star is widened (24, 26, 28, 30) until SDP
	// takes 60ms on it. A second server measures, so the measurements do not
	// reach the router under test.
	_, probe := newTestServer(t, Options{Cat: cat})
	elapsed := func(tech string, q *QuerySpec) time.Duration {
		code, resp := postOptimize(t, probe.URL, OptimizeRequest{Technique: tech, Query: q, NoCache: true})
		if code != http.StatusOK || resp.Stats == nil {
			t.Fatalf("probe %s: code %d, error %q", tech, code, resp.Error)
		}
		return time.Duration(resp.Stats.ElapsedNS)
	}
	var (
		star    *QuerySpec
		rels    int
		sdpTook time.Duration
	)
	for _, rels = range []int{24, 26, 28, 30} {
		star = topoSpecOn(t, cat, workload.Star, rels)
		if sdpTook = elapsed("sdp", star); sdpTook >= 60*time.Millisecond {
			break
		}
	}
	idpTook := elapsed("idp2", star)
	band := route.Band(rels)
	t.Logf("probe star-%d: sdp %v, idp2 %v", rels, sdpTook, idpTook)

	// A third of SDP's time, so the engine slice (deadline minus the router's
	// reserve of an eighth, at least 5ms) is under 0.3× what SDP needs; the
	// 20ms floor keeps the slice at 15ms or more, which greedy (reserve) and
	// IDP2 (second half) fit many times over, and 60ms is that floor with SDP
	// still 4× over its slice. On a 2-vCPU host, since the join kernel gates
	// candidates on admission, SDP takes 60–80ms on star-24, 88–122ms on
	// star-26, 133–159ms on star-28 and 171–218ms on star-30 of this schema,
	// IDP2 0.7–2.6ms and greedy 0.3–0.6ms on all four: at 80ms, deadline
	// 26ms, slice 21ms — 3.8× too short for SDP, 4× what IDP2's
	// safety-scaled estimate needs, and a 5ms reserve 8× greedy's time.
	// Under -race all of them slow down together and the deadline scales
	// with them. A host on which SDP star-30 is under 60ms needs a heavier
	// query here; failing says so, where skipping would turn the test off
	// quietly.
	if sdpTook < 60*time.Millisecond {
		t.Fatalf("SDP star-%d took %v: too fast to overrun a 15ms slice with 4× margin; this test needs a heavier query", rels, sdpTook)
	}
	timeoutMS := int64(sdpTook / (3 * time.Millisecond))
	if timeoutMS < 20 {
		timeoutMS = 20
	}

	// Teach the router a wildly optimistic SDP latency for big stars, so
	// the pre-flight check happily routes the wide star into the
	// deadline, and IDP2's measured one, so the rung below SDP fits the
	// deadline on its merits rather than by how its 40ms cold prior happens
	// to compare with it.
	s.Router().Observe(tech.SDP, "star", band, time.Millisecond, false)
	s.Router().Observe(tech.IDP2, "star", band, idpTook, false)

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
