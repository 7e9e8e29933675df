package regret

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sdpopt/internal/bits"
	"sdpopt/internal/catalog"
	"sdpopt/internal/dp"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/tech"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cfg := catalog.DefaultConfig()
	cfg.NumRelations = 8
	return catalog.MustSynthetic(cfg)
}

func chainQuery(t *testing.T, cat *catalog.Catalog, n int) *query.Query {
	t.Helper()
	rels := make([]int, n)
	used := make([]int, n)
	for i := range rels {
		rels[i] = i
	}
	preds := make([]query.Pred, 0, n-1)
	for i := 0; i+1 < n; i++ {
		preds = append(preds, query.Pred{
			LeftRel: i, LeftCol: used[i], RightRel: i + 1, RightCol: used[i+1],
		})
		used[i]++
		used[i+1]++
	}
	q, err := query.New(cat, rels, preds, nil)
	if err != nil {
		t.Fatalf("query.New: %v", err)
	}
	return q
}

// scanPlan returns a trivial plan whose only purpose is carrying a cost.
func scanPlan(cost float64) *plan.Plan {
	return &plan.Plan{Op: plan.SeqScan, Rels: bits.Single(0), Rel: 0, Cost: cost, Rows: 1, Order: plan.NoOrder}
}

// fixedOptimize is an OptimizeFunc returning a plan of the given cost.
func fixedOptimize(cost float64) OptimizeFunc {
	return func(ctx context.Context, technique string, q *query.Query, _ tech.Options) (*plan.Plan, dp.Stats, error) {
		return scanPlan(cost), dp.Stats{}, nil
	}
}

func drain(t *testing.T, s *Shadow) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestShadowMeasuresRegret(t *testing.T) {
	cat := testCatalog(t)
	q := chainQuery(t, cat, 4)
	ob := obs.New()
	s, err := New(Options{
		Optimize:   fixedOptimize(50),
		Obs:        ob,
		SampleRate: 1,
	}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.Observe(Sample{Query: q, Technique: "greedy", PlanCost: 100, PlanShape: "R1", Source: "miss", TraceID: "t1"})
	drain(t, s)

	d := s.Snapshot()
	if d.Counts.Observed != 1 || d.Counts.Sampled != 1 || d.Counts.Completed != 1 || d.Counts.Failures != 0 {
		t.Fatalf("counts = %+v", d.Counts)
	}
	if len(d.Keys) != 1 {
		t.Fatalf("keys = %+v", d.Keys)
	}
	k := d.Keys[0]
	if k.Tech != "greedy" || k.Shape != "chain" || k.Band != "1-4" {
		t.Errorf("key = %+v", k.Key)
	}
	if k.Rho != 2 || k.Worst != 2 || k.Window != 1 || k.Lifetime != 1 {
		t.Errorf("summary = %+v", k)
	}
	if k.PctGood != 100 {
		t.Errorf("bucket shares = %+v", k)
	}
	if len(d.Exemplars) != 1 {
		t.Fatalf("exemplars = %+v", d.Exemplars)
	}
	ex := d.Exemplars[0]
	if ex.Ratio != 2 || ex.ServedCost != 100 || ex.RefCost != 50 || ex.Ref != "dp" {
		t.Errorf("exemplar = %+v", ex)
	}
	if ex.ServedShape == "" || ex.RefShape == "" || ex.TraceID != "t1" {
		t.Errorf("exemplar plans missing: %+v", ex)
	}

	// Metrics: the labeled ratio histogram and sample counter moved.
	h := ob.Histogram(obs.Label(obs.MRegretRatio, "tech", "greedy", "shape", "chain"), obs.RatioBuckets)
	if h.Count() != 1 || h.Sum() != 2 {
		t.Errorf("ratio histogram count=%d sum=%g", h.Count(), h.Sum())
	}
	if c := ob.Counter(obs.Label(obs.MRegretSamples, "tech", "greedy")); c.Value() != 1 {
		t.Errorf("samples counter = %d", c.Value())
	}
}

func TestShadowSamplingRates(t *testing.T) {
	cat := testCatalog(t)
	q := chainQuery(t, cat, 3)
	s, err := New(Options{
		Optimize:      fixedOptimize(50),
		SampleRate:    0.5,
		HitSampleRate: 1,
		DedupFor:      -1, // effectively disabled: every sample may enqueue
		QueueSize:     64,
	}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 10; i++ {
		s.Observe(Sample{Query: q, Technique: "sdp", PlanCost: 10, PlanShape: "R1", Source: "miss"})
	}
	if got := s.sampled.Load(); got != 5 {
		t.Errorf("computed sampled = %d, want 5 of 10 at rate 0.5", got)
	}
	before := s.sampled.Load()
	for i := 0; i < 4; i++ {
		s.Observe(Sample{Query: q, Technique: "sdp", PlanCost: 10, PlanShape: "R1", Source: "hit"})
	}
	if got := s.sampled.Load() - before; got != 4 {
		t.Errorf("hit sampled = %d, want 4 of 4 at rate 1", got)
	}
	drain(t, s)
}

func TestShadowDedup(t *testing.T) {
	cat := testCatalog(t)
	q := chainQuery(t, cat, 3)
	other := chainQuery(t, cat, 4)
	s, err := New(Options{Optimize: fixedOptimize(50), SampleRate: 1, DedupFor: time.Hour}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 3; i++ {
		s.Observe(Sample{Query: q, Technique: "sdp", PlanCost: 10, PlanShape: "R1", Source: "miss"})
	}
	s.Observe(Sample{Query: other, Technique: "sdp", PlanCost: 10, PlanShape: "R1", Source: "miss"})
	drain(t, s)

	d := s.Snapshot()
	if d.Counts.Deduped != 2 || d.Counts.Enqueued != 2 {
		t.Errorf("counts = %+v, want 2 deduped / 2 enqueued", d.Counts)
	}
}

func TestShadowQueueOverflowDrops(t *testing.T) {
	cat := testCatalog(t)
	queries := []*query.Query{chainQuery(t, cat, 2), chainQuery(t, cat, 3), chainQuery(t, cat, 4), chainQuery(t, cat, 5)}
	block := make(chan struct{})
	var started atomic.Int64
	slow := func(ctx context.Context, technique string, q *query.Query, _ tech.Options) (*plan.Plan, dp.Stats, error) {
		started.Add(1)
		<-block
		return scanPlan(50), dp.Stats{}, nil
	}
	s, err := New(Options{Optimize: slow, SampleRate: 1, Workers: 1, QueueSize: 1}, "v1")
	if err != nil {
		t.Fatal(err)
	}

	// First job occupies the worker, second fills the queue, the rest drop.
	for _, q := range queries {
		s.Observe(Sample{Query: q, Technique: "sdp", PlanCost: 10, PlanShape: "R1", Source: "miss"})
	}
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if got := s.lane.Counts().Dropped; got < 1 {
		t.Errorf("dropped = %d, want >= 1", got)
	}
	if got := s.lane.Counts().Enqueued; got > 3 {
		t.Errorf("enqueued = %d with queue size 1 + 1 worker", got)
	}
	close(block)
	drain(t, s)
	s.Close()

	// Dropped jobs cleared their dedup mark, so the same query can be
	// shadowed next time around.
	d := s.Snapshot()
	if d.Counts.Enqueued != d.Counts.Completed {
		t.Errorf("enqueued %d != completed %d after drain", d.Counts.Enqueued, d.Counts.Completed)
	}
}

func TestShadowPinsWorstRegret(t *testing.T) {
	cat := testCatalog(t)
	rec := span.NewRecorder(span.RecorderOptions{SlowThreshold: time.Hour})
	s, err := New(Options{
		Optimize:   fixedOptimize(10),
		Flight:     rec,
		SampleRate: 1,
		PinRatio:   2,
		DedupFor:   -1,
	}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Ratio 1.5: below the pin threshold, not pinned.
	s.Observe(Sample{Query: chainQuery(t, cat, 3), Technique: "greedy", PlanCost: 15, PlanShape: "R1", Source: "miss"})
	// Ratio 3: pinned.
	s.Observe(Sample{Query: chainQuery(t, cat, 4), Technique: "greedy", PlanCost: 30, PlanShape: "R1", Source: "miss", TraceID: "serveid"})
	drain(t, s)

	if got := s.pinned.Load(); got != 1 {
		t.Fatalf("pinned = %d, want 1", got)
	}
	fd := rec.Snapshot()
	if len(fd.Notable) != 1 || fd.Counts.Pinned != 1 {
		t.Fatalf("flight notable = %d, pinned = %d", len(fd.Notable), fd.Counts.Pinned)
	}
	rendered := fd.Notable[0].Render()
	if !strings.Contains(rendered, "regret.shadow") || !strings.Contains(rendered, "ratio=3") {
		t.Errorf("pinned trace missing regret attrs:\n%s", rendered)
	}
	if !strings.Contains(rendered, "serveid") {
		t.Errorf("pinned trace does not name the serving trace:\n%s", rendered)
	}
	// The exemplar records which shadow trace was pinned.
	var foundShadowID bool
	for _, ex := range s.Snapshot().Exemplars {
		if ex.Ratio == 3 && ex.ShadowTraceID == fd.Notable[0].TraceID {
			foundShadowID = true
		}
	}
	if !foundShadowID {
		t.Errorf("exemplar does not link the pinned shadow trace: %+v", s.Snapshot().Exemplars)
	}
}

func TestShadowWindowRolls(t *testing.T) {
	cat := testCatalog(t)
	q := chainQuery(t, cat, 3)
	var cost atomic.Int64
	cost.Store(100)
	opt := func(ctx context.Context, technique string, q *query.Query, _ tech.Options) (*plan.Plan, dp.Stats, error) {
		return scanPlan(float64(cost.Load())), dp.Stats{}, nil
	}
	s, err := New(Options{Optimize: opt, SampleRate: 1, DedupFor: -1, Window: 4, TopN: 2}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// 6 samples at ratio 2, then 4 at ratio 1: the window of 4 retains
	// only the ratio-1 tail while lifetime counts all 10.
	for i := 0; i < 6; i++ {
		s.Observe(Sample{Query: q, Technique: "idp2", PlanCost: 200, PlanShape: "R1", Source: "miss"})
		drain(t, s)
	}
	cost.Store(200)
	for i := 0; i < 4; i++ {
		s.Observe(Sample{Query: q, Technique: "idp2", PlanCost: 200, PlanShape: "R1", Source: "miss"})
		drain(t, s)
	}

	d := s.Snapshot()
	if len(d.Keys) != 1 {
		t.Fatalf("keys = %+v", d.Keys)
	}
	k := d.Keys[0]
	if k.Window != 4 || k.Lifetime != 10 {
		t.Errorf("window=%d lifetime=%d, want 4/10", k.Window, k.Lifetime)
	}
	if k.Rho != 1 || k.Worst != 1 {
		t.Errorf("rolled window should be all ratio-1: %+v", k)
	}
	// TopN capped at 2, holding the worst (ratio 2) entries.
	if len(d.Exemplars) != 2 || d.Exemplars[0].Ratio != 2 || d.Exemplars[1].Ratio != 2 {
		t.Errorf("exemplars = %+v", d.Exemplars)
	}
}

func TestShadowFailuresCounted(t *testing.T) {
	cat := testCatalog(t)
	fail := func(ctx context.Context, technique string, q *query.Query, _ tech.Options) (*plan.Plan, dp.Stats, error) {
		return nil, dp.Stats{}, context.DeadlineExceeded
	}
	ob := obs.New()
	s, err := New(Options{Optimize: fail, Obs: ob, SampleRate: 1}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Observe(Sample{Query: chainQuery(t, cat, 3), Technique: "sdp", PlanCost: 10, PlanShape: "R1", Source: "miss"})
	drain(t, s)
	d := s.Snapshot()
	if d.Counts.Failures != 1 || d.Counts.Completed != 1 || len(d.Keys) != 0 {
		t.Errorf("failure accounting: %+v keys=%v", d.Counts, d.Keys)
	}
	if c := ob.Counter(obs.MRegretShadowErrors); c.Value() != 1 {
		t.Errorf("shadow error counter = %d", c.Value())
	}
}

// A reference optimization that panics costs one failed measurement, not
// the process: the error metric moves and the next job still completes.
func TestShadowContainsPanic(t *testing.T) {
	cat := testCatalog(t)
	var calls atomic.Int64
	opt := func(ctx context.Context, technique string, q *query.Query, _ tech.Options) (*plan.Plan, dp.Stats, error) {
		if calls.Add(1) == 1 {
			panic("engine bug")
		}
		return scanPlan(50), dp.Stats{}, nil
	}
	ob := obs.New()
	s, err := New(Options{Optimize: opt, Obs: ob, SampleRate: 1, DedupFor: -1}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		s.Observe(Sample{Query: chainQuery(t, cat, 3), Technique: "greedy", PlanCost: 100, PlanShape: "R1", Source: "miss"})
	}
	drain(t, s)
	d := s.Snapshot()
	if d.Counts.Failures != 1 || d.Counts.Completed != 2 || len(d.Keys) != 1 {
		t.Fatalf("after a panicking job: %+v keys=%v", d.Counts, d.Keys)
	}
	if c := ob.Counter(obs.MRegretShadowErrors); c.Value() != 1 {
		t.Errorf("shadow error counter = %d, want 1", c.Value())
	}
}

func TestDumpRoundTripAndRender(t *testing.T) {
	cat := testCatalog(t)
	s, err := New(Options{Optimize: fixedOptimize(50), SampleRate: 1, DedupFor: -1}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Observe(Sample{Query: chainQuery(t, cat, 4), Technique: "greedy", PlanCost: 500, PlanShape: "R1", Source: "miss"})
	drain(t, s)

	d := s.Snapshot()
	mux := obs.NewDebugMux()
	obs.MountPage(mux, "/debug/regret", "plan-quality regret", s.Snapshot)
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/regret.json", nil))
	back, err := ReadDump(rw.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Keys) != len(d.Keys) || back.Keys[0].Rho != d.Keys[0].Rho || back.Counts != d.Counts {
		t.Errorf("round trip mismatch: %+v vs %+v", back, d)
	}

	text := back.Render()
	for _, want := range []string{"greedy", "chain", "1-4", "rho=", "served (cost 500.00)", "ref    (cost 50.00)"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render missing %q:\n%s", want, text)
		}
	}

	hw := httptest.NewRecorder()
	mux.ServeHTTP(hw, httptest.NewRequest("GET", "/debug/regret", nil))
	for _, want := range []string{"plan-quality regret", "greedy", "regret.json"} {
		if !strings.Contains(hw.Body.String(), want) {
			t.Errorf("HTML missing %q", want)
		}
	}
}

func TestShadowNilSafety(t *testing.T) {
	var s *Shadow
	s.Observe(Sample{})
	s.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := s.Snapshot(); len(d.Keys) != 0 {
		t.Fatal("nil snapshot not empty")
	}
	if s.Reference(5) != "sdp" {
		t.Error("nil Reference should fall back to sdp")
	}
}
