package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sdpopt/internal/obs"
	"sdpopt/internal/obs/regret"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plancache"
	"sdpopt/internal/quality"
	"sdpopt/internal/tech"
	"sdpopt/internal/workload"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Cat == nil {
		opts.Cat = workload.PaperSchema()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postOptimize(t *testing.T, url string, req OptimizeRequest) (int, *OptimizeResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad response body: %v", err)
	}
	return resp.StatusCode, &out
}

const testSQL = "SELECT * FROM R1 a, R2 b, R3 c WHERE a.c1 = b.c1 AND b.c2 = c.c2 AND c.c3 < 100 ORDER BY a.c1"

func TestOptimizeSQLMissThenHit(t *testing.T) {
	ob := obs.New()
	cache := plancache.New(plancache.Options{Obs: ob})
	_, ts := newTestServer(t, Options{Cache: cache, Obs: ob})

	code, first := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL, Explain: true})
	if code != http.StatusOK {
		t.Fatalf("first request: code %d, error %q", code, first.Error)
	}
	if first.Source != "miss" || first.Cached || first.Cost <= 0 || first.Shape == "" || first.Explain == "" {
		t.Fatalf("first response: %+v", first)
	}
	if first.Technique != "sdp" {
		t.Fatalf("default technique = %q, want sdp", first.Technique)
	}

	code, second := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL})
	if code != http.StatusOK || second.Source != "hit" || !second.Cached {
		t.Fatalf("second response: code %d, %+v", code, second)
	}
	if second.Fingerprint != first.Fingerprint || second.Cost != first.Cost {
		t.Fatalf("hit diverges from miss: %+v vs %+v", second, first)
	}

	// The repeated query must be observable as a hit in /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		obs.MCacheHits + " 1",
		obs.MCacheMisses + " 1",
		obs.MCacheEntries + " 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestOptimizeQueryJSON(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := OptimizeRequest{
		Technique: "dp",
		Query: &QuerySpec{
			Rels: []int{1, 2, 3},
			Preds: []PredSpec{
				{LeftRel: 0, LeftCol: 0, RightRel: 1, RightCol: 0},
				{LeftRel: 1, LeftCol: 1, RightRel: 2, RightCol: 1},
			},
			Filters: []FilterSpec{{Rel: 2, Col: 2, Bound: 100}},
			OrderBy: &OrderSpec{Rel: 0, Col: 0},
		},
	}
	code, resp := postOptimize(t, ts.URL, req)
	if code != http.StatusOK || resp.Cost <= 0 || resp.Source != "uncached" {
		t.Fatalf("code %d, %+v", code, resp)
	}
	if len(resp.Rels) != 3 {
		t.Fatalf("rels = %v", resp.Rels)
	}
}

// The SQL and query-JSON spellings of the same query must share a
// fingerprint (and therefore a cache entry).
func TestSQLAndJSONShareFingerprint(t *testing.T) {
	ob := obs.New()
	cache := plancache.New(plancache.Options{Obs: ob})
	_, ts := newTestServer(t, Options{Cache: cache, Obs: ob})

	_, viaSQL := postOptimize(t, ts.URL, OptimizeRequest{SQL: "SELECT * FROM R1 a, R2 b WHERE a.c1 = b.c1"})
	_, viaJSON := postOptimize(t, ts.URL, OptimizeRequest{Query: &QuerySpec{
		Rels:  []int{1, 0}, // R2, R1 — reversed order: fingerprinting must not care
		Preds: []PredSpec{{LeftRel: 1, LeftCol: 0, RightRel: 0, RightCol: 0}},
	}})
	if viaSQL.Fingerprint != viaJSON.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", viaSQL.Fingerprint, viaJSON.Fingerprint)
	}
	if viaJSON.Source != "hit" {
		t.Fatalf("JSON spelling source = %q, want hit", viaJSON.Source)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name     string
		req      OptimizeRequest
		wantCode int
		wantMsg  string
	}{
		{"bad sql position", OptimizeRequest{SQL: "SELECT *\nFROM R1 a\nWHERE a.nope < 3"}, 400, "3:9"},
		{"unknown technique", OptimizeRequest{SQL: testSQL, Technique: "quantum"}, 400, "unknown technique"},
		{"neither sql nor query", OptimizeRequest{}, 400, "neither"},
		{"both sql and query", OptimizeRequest{SQL: testSQL, Query: &QuerySpec{Rels: []int{1}}}, 400, "both"},
		{"bad query shape", OptimizeRequest{Query: &QuerySpec{Rels: []int{1, 2}}}, 400, ""},
	}
	for _, c := range cases {
		code, resp := postOptimize(t, ts.URL, c.req)
		if code != c.wantCode {
			t.Errorf("%s: code %d, want %d (%+v)", c.name, code, c.wantCode, resp)
			continue
		}
		if c.wantMsg != "" && !strings.Contains(resp.Error, c.wantMsg) {
			t.Errorf("%s: error %q does not contain %q", c.name, resp.Error, c.wantMsg)
		}
	}
}

func TestTimeoutMaps504(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// Exhaustive DP on a 15-relation star takes far longer than 1 ms.
	qs, err := workload.Instances(workload.Spec{
		Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 15, Seed: 3,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	code, resp := postOptimize(t, ts.URL, OptimizeRequest{
		SQL: qs[0].SQL(), Technique: "dp", TimeoutMS: 1, NoCache: true,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("code %d (%+v), want 504", code, resp)
	}
	if !strings.Contains(resp.Error, "canceled") {
		t.Fatalf("error %q does not mention cancellation", resp.Error)
	}
}

func TestBudgetAbortIs200(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	qs, err := workload.Instances(workload.Spec{
		Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 15, Seed: 3,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB is far below DP's appetite on a 15-star: the paper's
	// infeasible outcome, reported as a successful measurement.
	code, resp := postOptimize(t, ts.URL, OptimizeRequest{
		SQL: qs[0].SQL(), Technique: "dp", BudgetMB: 1, NoCache: true,
	})
	if code != http.StatusOK || !resp.BudgetExceeded {
		t.Fatalf("code %d, %+v; want 200 with budget_exceeded", code, resp)
	}
	if resp.Stats == nil || resp.Stats.ClassesCreated == 0 {
		t.Fatalf("budget abort lost its stats: %+v", resp.Stats)
	}
}

// TestShedding saturates a 1-slot, 0-queue server with a slow request and
// verifies the next request is shed with 429.
func TestShedding(t *testing.T) {
	ob := obs.New()
	s, ts := newTestServer(t, Options{MaxConcurrent: 1, MaxQueue: 1, Obs: ob})

	qs, err := workload.Instances(workload.Spec{
		Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 14, Seed: 5,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	slow := OptimizeRequest{SQL: qs[0].SQL(), Technique: "dp", TimeoutMS: 2000, NoCache: true}

	var wg sync.WaitGroup
	results := make([]int, 6)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _ := postOptimize(t, ts.URL, slow)
			results[i] = code
		}(i)
		// Stagger so the first request holds the slot before the rest pile
		// up; poll the server's own admission state rather than sleeping.
		if i == 0 {
			deadline := time.Now().Add(5 * time.Second)
			for s.InFlight() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	wg.Wait()

	shed := 0
	for _, code := range results {
		if code == http.StatusTooManyRequests {
			shed++
		}
	}
	// Capacity is 1 executing + 1 queued; of 6 requests at least 4 must be
	// shed (exact counts depend on completion timing).
	if shed < 4 {
		t.Fatalf("results %v: %d shed, want >= 4", results, shed)
	}
}

// TestConcurrentSingleflight fires identical requests at once and verifies
// exactly one underlying optimization ran, via the obs counters.
func TestConcurrentSingleflight(t *testing.T) {
	ob := obs.New()
	cache := plancache.New(plancache.Options{Obs: ob})
	_, ts := newTestServer(t, Options{Cache: cache, Obs: ob, MaxConcurrent: 16, MaxQueue: 32})

	const n = 12
	var wg sync.WaitGroup
	codes := make([]int, n)
	sources := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, resp := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL})
			codes[i], sources[i] = code, resp.Source
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: code %d (source %q)", i, code, sources[i])
		}
	}
	ct := cache.Counts()
	if ct.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (counts %+v, sources %v)", ct.Misses, ct, sources)
	}
	if ct.Hits+ct.Dedups != n-1 {
		t.Fatalf("hits %d + dedups %d != %d", ct.Hits, ct.Dedups, n-1)
	}
	// MOptimizations counts completed engine runs; the singleflight must
	// have let exactly one through. Sum the labeled series off /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	optimizations := 0
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, obs.MOptimizations) {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err == nil {
				optimizations += int(v)
			}
		}
	}
	if optimizations != 1 {
		t.Fatalf("underlying optimizations = %d, want exactly 1\n%s", optimizations, metrics)
	}
}

func TestHealthzAndCatalog(t *testing.T) {
	cache := plancache.New(plancache.Options{})
	s, ts := newTestServer(t, Options{Cache: cache})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status         string   `json:"status"`
		CatalogVersion string   `json:"catalog_version"`
		Techniques     []string `json:"techniques"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.CatalogVersion == "" || len(health.Techniques) == 0 {
		t.Fatalf("healthz: %+v", health)
	}

	resp, err = http.Get(ts.URL + "/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var cat struct {
		Version string          `json:"version"`
		Catalog json.RawMessage `json:"catalog"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cat.Version != health.CatalogVersion || len(cat.Catalog) < 2 {
		t.Fatalf("catalog: version %q, %d bytes", cat.Version, len(cat.Catalog))
	}
	_ = s
}

func TestStartShutdown(t *testing.T) {
	cache := plancache.New(plancache.Options{})
	s, err := New(Options{Cat: workload.PaperSchema(), Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over Start: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
}

// TestSlowHeaderClientIsDropped: a client that sends half a request line
// and then nothing must not hold its connection forever.
func TestSlowHeaderClientIsDropped(t *testing.T) {
	s, err := New(Options{Cat: workload.PaperSchema()})
	if err != nil {
		t.Fatal(err)
	}
	s.readHeaderTimeout = 50 * time.Millisecond
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /optim")); err != nil {
		t.Fatal(err)
	}
	// ReadAll returns without error once the server closes its side; the
	// client's own deadline is what fails the test when it never does.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept a connection with unfinished headers open: %v", err)
	}
}

// TestAllTechniques smoke-tests every tech table entry over HTTP.
func TestAllTechniques(t *testing.T) {
	cache := plancache.New(plancache.Options{})
	_, ts := newTestServer(t, Options{Cache: cache})
	for _, name := range tech.Names() {
		code, resp := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL, Technique: name})
		if code != http.StatusOK || resp.Cost <= 0 {
			t.Errorf("technique %q: code %d, %+v", name, code, resp)
		}
	}
}

// TestRetiredTechniquesRejected: the comparison-only engines are harness
// rows, not served techniques. Naming one gets a 400 whose error lists
// exactly the served set.
func TestRetiredTechniquesRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	want := fmt.Sprintf("(valid: %v)", append([]string{"auto"}, tech.Names()...))
	for _, name := range []string{"genetic", "ii", "sa", "idp", "dp/ld"} {
		t.Run(name, func(t *testing.T) {
			code, resp := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL, Technique: name})
			if code != http.StatusBadRequest {
				t.Fatalf("code %d, want 400", code)
			}
			if !strings.HasSuffix(resp.Error, want) {
				t.Errorf("error %q does not end in %q", resp.Error, want)
			}
		})
	}
}

// TestPanicAnswers500AndServerStaysUp drives the /optimize recover wrapper
// with a handler that panics after opening its request span: the client gets
// a 500, the trace is closed with the panic as its error, the 500 is
// counted, and the next real request is served normally.
func TestPanicAnswers500AndServerStaysUp(t *testing.T) {
	ob := obs.New()
	s, ts := newTestServer(t, Options{Obs: ob})
	h := s.recoverOptimize(func(w *optimizeWriter, r *http.Request) {
		root := span.New("request")
		w.root = root
		s.flight.Start(root)
		panic("engine bug")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/optimize", nil))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "panic: engine bug") {
		t.Fatalf("panic answered %d %q, want 500 naming the panic", rec.Code, rec.Body.String())
	}
	d := s.Flight().Snapshot()
	if len(d.Active) != 0 || len(d.Notable) != 1 || d.Notable[0].Code != 500 || d.Notable[0].Error != "panic: engine bug" {
		t.Errorf("flight recorder after panic: active %d, notable %+v", len(d.Active), d.Notable)
	}
	if c := ob.Counter(obs.Label(obs.MServerRequests, "route", "/optimize", "code", "500")); c.Value() != 1 {
		t.Errorf("500 counter = %d, want 1", c.Value())
	}
	if code, resp := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL}); code != http.StatusOK {
		t.Fatalf("request after the panic: code %d, %+v", code, resp)
	}
}

// TestPanicAfterResponseWritesNothingMore drives the recover wrapper with a
// handler that answers 200, flushes and then panics, as a shadow or sampler
// offer after the flush would: the client must get exactly the one JSON
// document already written, and no 500 is counted for a request answered
// 200.
func TestPanicAfterResponseWritesNothingMore(t *testing.T) {
	ob := obs.New()
	s, _ := newTestServer(t, Options{Obs: ob})
	h := s.recoverOptimize(func(w *optimizeWriter, r *http.Request) {
		root := span.New("request")
		w.root = root
		s.flight.Start(root)
		s.flight.Finish(root, http.StatusOK)
		s.writeJSON(w, r, http.StatusOK, map[string]bool{"ok": true})
		w.Flush()
		panic("after response")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/optimize", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want the 200 already written", rec.Code)
	}
	dec := json.NewDecoder(rec.Body)
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil || doc["ok"] != true {
		t.Fatalf("first document %v (err %v), want {\"ok\":true}", doc, err)
	}
	if rest, _ := io.ReadAll(dec.Buffered()); strings.TrimSpace(string(rest)) != "" || rec.Body.Len() != 0 {
		t.Fatalf("body carries more after the response: %q%q", rest, rec.Body.String())
	}
	if c := ob.Counter(obs.Label(obs.MServerRequests, "route", "/optimize", "code", "500")); c.Value() != 0 {
		t.Errorf("500 counter = %d, want 0", c.Value())
	}
}

// TestCacheHitRelabelsAcrossSpellings: a cache hit may come from a
// semantically equivalent spelling whose query-local relation numbering
// differs from the requester's. The served plan must name the requesting
// query's relations. Relabeling preserves the catalog relation behind every
// leaf, so the hit must render exactly the caching spelling's Shape —
// before the fix it rendered the cacher's indexes under the requester's
// names, misattributing every scan.
func TestCacheHitRelabelsAcrossSpellings(t *testing.T) {
	cache := plancache.New(plancache.Options{})
	_, ts := newTestServer(t, Options{Cache: cache})

	// Warm the cache with the SQL spelling: relation order R1, R2, R3.
	code, warm := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL, Explain: true})
	if code != http.StatusOK || warm.Source != "miss" {
		t.Fatalf("warmup: code %d, %+v", code, warm)
	}

	// The same query with its relation list reversed: R3, R2, R1.
	reversed := OptimizeRequest{Explain: true, Query: &QuerySpec{
		Rels: []int{2, 1, 0},
		Preds: []PredSpec{
			{LeftRel: 2, LeftCol: 0, RightRel: 1, RightCol: 0},
			{LeftRel: 1, LeftCol: 1, RightRel: 0, RightCol: 1},
		},
		Filters: []FilterSpec{{Rel: 0, Col: 2, Bound: 100}},
		OrderBy: &OrderSpec{Rel: 2, Col: 0},
	}}
	code, hit := postOptimize(t, ts.URL, reversed)
	if code != http.StatusOK || hit.Source != "hit" {
		t.Fatalf("reversed spelling: code %d, %+v", code, hit)
	}
	if hit.Fingerprint != warm.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", hit.Fingerprint, warm.Fingerprint)
	}
	if hit.Shape != warm.Shape {
		t.Fatalf("hit misattributes relations:\nhit    %s\ncached %s", hit.Shape, warm.Shape)
	}
	if hit.Cost != warm.Cost {
		t.Fatalf("hit cost %g != cached cost %g", hit.Cost, warm.Cost)
	}
	// Equivalence-class ids are query-local too: the two spellings assign
	// the classes {a.c1, b.c1} and {b.c2, c.c2} opposite ids (query.New
	// numbers classes by their lowest (rel, col) member), so the hit's
	// EXPLAIN must be the warm EXPLAIN with ec0 and ec1 exchanged.
	wantExplain := strings.NewReplacer("order=ec0", "order=ecX", "order=ec1", "order=ec0").Replace(warm.Explain)
	wantExplain = strings.ReplaceAll(wantExplain, "order=ecX", "order=ec1")
	if hit.Explain != wantExplain {
		t.Fatalf("hit EXPLAIN not relabeled into the requester's classes:\n%s\nwant\n%s", hit.Explain, wantExplain)
	}
	if len(hit.Rels) != 3 || hit.Rels[0] != "R3" || hit.Rels[2] != "R1" {
		t.Fatalf("rels not in the requester's order: %v", hit.Rels)
	}
}

// TestCachedComputeDetachedFromRequestDeadline: a cache-filling compute is
// shared property — the triggering caller's tiny timeout_ms must not abort
// it (previously the flight inherited that deadline, 504ing every waiter
// and leaving nothing cached).
func TestCachedComputeDetachedFromRequestDeadline(t *testing.T) {
	cache := plancache.New(plancache.Options{})
	_, ts := newTestServer(t, Options{Cache: cache})
	qs, err := workload.Instances(workload.Spec{
		Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 12, Seed: 3,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive DP on a 12-star needs ~half a second, far beyond 1 ms; the
	// detached compute still runs to completion under the server-wide cap.
	code, resp := postOptimize(t, ts.URL, OptimizeRequest{
		SQL: qs[0].SQL(), Technique: "dp", TimeoutMS: 1,
	})
	if code != http.StatusOK || resp.Source != "miss" || resp.Cost <= 0 {
		t.Fatalf("short-deadline filler: code %d, %+v", code, resp)
	}
	code, resp = postOptimize(t, ts.URL, OptimizeRequest{SQL: qs[0].SQL(), Technique: "dp"})
	if code != http.StatusOK || resp.Source != "hit" {
		t.Fatalf("follow-up: code %d, source %q — the filler's result was not cached", code, resp.Source)
	}
}

// TestBudgetOverrideBypassesCache: budget_mb overrides neither read nor
// write cache entries, so a response can never depend on which budget an
// earlier caller happened to use.
func TestBudgetOverrideBypassesCache(t *testing.T) {
	cache := plancache.New(plancache.Options{})
	_, ts := newTestServer(t, Options{Cache: cache})

	code, warm := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL})
	if code != http.StatusOK || warm.Source != "miss" {
		t.Fatalf("warmup: code %d, %+v", code, warm)
	}
	code, over := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL, BudgetMB: 64})
	if code != http.StatusOK || over.Source != "uncached" {
		t.Fatalf("override: code %d, source %q, want uncached", code, over.Source)
	}
	code, again := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL})
	if code != http.StatusOK || again.Source != "hit" {
		t.Fatalf("post-override: code %d, source %q, want hit", code, again.Source)
	}
	if ct := cache.Counts(); ct.Entries != 1 || ct.Misses != 1 {
		t.Fatalf("override touched the cache: %+v", ct)
	}
}

// TestRetiredWorkersFieldRejected: parallel enumeration is gone, and with it
// the request's workers field. A client that still sends it gets a 400 that
// names the field, not a silently ignored knob.
func TestRetiredWorkersFieldRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, _ := json.Marshal(map[string]any{"sql": testSQL, "technique": "dp", "workers": 2})
	resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad response body: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("code %d, want 400 (%+v)", resp.StatusCode, out)
	}
	if !strings.Contains(out.Error, `"workers"`) {
		t.Errorf("error %q does not name the workers field", out.Error)
	}
}

// The server wires the regret shadow end to end: sampled serves are
// re-optimized in the background, /debug/regret(.json) reports windows that
// match an offline internal/quality recomputation, and the regret and
// build-info metrics reach /metrics.
func TestServerRegretShadow(t *testing.T) {
	ob := obs.New()
	cache := plancache.New(plancache.Options{Obs: ob})
	srv, ts := newTestServer(t, Options{
		Cache: cache,
		Obs:   ob,
		Regret: &regret.Options{
			SampleRate:    1,
			HitSampleRate: 1,
			DedupFor:      -1, // measure every serve, including repeats
			Workers:       2,
			PinRatio:      1, // pin every measured shadow trace
		},
	})

	// A 6-relation star-chain served by greedy twice (miss, then hit) and
	// the 3-relation chain served by the SDP default once.
	const starChain = "SELECT * FROM R1 a, R2 b, R3 c, R4 d, R5 e, R6 f " +
		"WHERE a.c1 = b.c1 AND a.c2 = c.c2 AND a.c3 = d.c3 AND d.c4 = e.c4 AND e.c5 = f.c5"
	for i, req := range []OptimizeRequest{
		{SQL: starChain, Technique: "greedy"},
		{SQL: starChain, Technique: "greedy"},
		{SQL: testSQL},
	} {
		if code, resp := postOptimize(t, ts.URL, req); code != http.StatusOK {
			t.Fatalf("request %d: code %d, error %q", i, code, resp.Error)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The handler flushes the response before it hands the sample to the
	// shadow — the answer goes on the wire first — so the last sample can
	// reach the shadow after the client has its response. Drain waits only
	// for jobs already offered: wait until all three are sampled and offered.
	for {
		c := srv.Regret().Snapshot().Counts
		if c.Sampled == 3 && c.Enqueued+c.Deduped+c.Dropped == c.Sampled {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatalf("shadow never sampled and offered three serves: %+v", c)
		case <-time.After(time.Millisecond):
		}
	}
	if err := srv.Regret().Drain(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/debug/regret.json")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := regret.ReadDump(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	c := dump.Counts
	if c.Observed != 3 || c.Sampled != 3 || c.Deduped != 0 || c.Dropped != 0 {
		t.Fatalf("sampling counts: %+v", c)
	}
	if c.Completed != 3 || c.Failures != 0 {
		t.Fatalf("shadow completion: %+v", c)
	}
	if c.Pinned == 0 {
		t.Errorf("no shadow traces pinned despite PinRatio 1: %+v", c)
	}

	keys := map[regret.Key]regret.KeySummary{}
	for _, k := range dump.Keys {
		keys[k.Key] = k
	}
	g, ok := keys[regret.Key{Tech: "greedy", Shape: "star-chain", Band: "5-8"}]
	if !ok || g.Lifetime != 2 || g.Window != 2 {
		t.Fatalf("greedy star-chain window missing or wrong: %+v (keys %+v)", g, dump.Keys)
	}
	sd, ok := keys[regret.Key{Tech: "sdp", Shape: "chain", Band: "1-4"}]
	if !ok || sd.Lifetime != 1 || sd.Window != 1 {
		t.Fatalf("sdp chain window missing or wrong: %+v (keys %+v)", sd, dump.Keys)
	}
	for _, k := range dump.Keys {
		if k.Rho < 1-1e-9 || k.Worst < k.Rho-1e-9 {
			t.Errorf("key %+v: rho=%v worst=%v — the reference should never cost more than the served plan", k.Key, k.Rho, k.Worst)
		}
	}

	// The served windows must match an offline recomputation from the
	// retained exemplars (TopN's default retains all three samples here).
	byKey := map[regret.Key][]float64{}
	for _, ex := range dump.Exemplars {
		k := regret.Key{Tech: ex.Tech, Shape: ex.Shape, Band: ex.Band}
		byKey[k] = append(byKey[k], ex.Ratio)
		if ex.ServedShape == "" || ex.RefShape == "" || ex.TraceID == "" {
			t.Errorf("exemplar missing plan trees or trace link: %+v", ex)
		}
	}
	for key, k := range keys {
		ratios := byKey[key]
		if len(ratios) != k.Window {
			t.Fatalf("key %+v: %d exemplars for a window of %d", key, len(ratios), k.Window)
		}
		sum, err := quality.SummarizeRelative(ratios)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sum.Rho-k.Rho) > 1e-9 || math.Abs(sum.Worst-k.Worst) > 1e-9 {
			t.Errorf("key %+v: served rho=%v worst=%v, offline rho=%v worst=%v",
				key, k.Rho, k.Worst, sum.Rho, sum.Worst)
		}
	}

	// Regret and build-info metrics reach /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		obs.MRegretRatio, obs.MRegretSamples, obs.MRegretQueueDepth,
		obs.MBuildInfo, obs.MUptime,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The HTML page serves, and the pinned shadow traces appear in the
	// flight recorder's debug page.
	hresp, err := http.Get(ts.URL + "/debug/regret")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(page), "plan-quality regret") {
		t.Fatalf("/debug/regret: code %d, body %.200s", hresp.StatusCode, page)
	}
	rresp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	reqPage, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if !strings.Contains(string(reqPage), "pinned") || !strings.Contains(string(reqPage), "regret.shadow") {
		t.Errorf("/debug/requests does not show the pinned shadow traces: %.300s", reqPage)
	}
}

// An unconfigured server carries a nil shadow: no /debug/regret routes, and
// the nil accessor is safe to drain and snapshot.
func TestServerRegretDisabled(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	if srv.Regret() != nil {
		t.Fatal("shadow built without Options.Regret")
	}
	resp, err := http.Get(ts.URL + "/debug/regret")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/regret on a shadowless server: code %d, want 404", resp.StatusCode)
	}
	if d := srv.Regret().Snapshot(); d == nil || len(d.Keys) != 0 {
		t.Fatalf("nil shadow snapshot: %+v", d)
	}
}
