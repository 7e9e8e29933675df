package feedback

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"sdpopt/internal/catalog"
	"sdpopt/internal/dp"
	"sdpopt/internal/exec"
	"sdpopt/internal/obs"
	"sdpopt/internal/query"
	"sdpopt/internal/testutil"
)

// tinyCatalog mirrors the exec test fixture: small enough to execute.
func tinyCatalog(n int) *catalog.Catalog {
	return catalog.MustSynthetic(catalog.Config{
		NumRelations:    n,
		BaseRows:        20,
		Ratio:           1.3,
		ColsPerRelation: 8,
		MinDomain:       4,
		MaxDomain:       30,
		Seed:            5,
	})
}

func tinyQuery(t *testing.T, cat *catalog.Catalog, n int, edges []query.Edge) *query.Query {
	t.Helper()
	q, err := testutil.Query(cat, n, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// execObservations optimizes q with DP, executes the plan, and returns its
// observations.
func execObservations(t *testing.T, q *query.Query, tech string) []Observation {
	t.Helper()
	p, _, err := dp.Optimize(q, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := exec.Generate(q, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	_, actuals, err := db.RunActuals(p)
	if err != nil {
		t.Fatal(err)
	}
	return PlanObservations(q, p, actuals, tech, "trace-1")
}

func TestPlanObservationsAttribution(t *testing.T) {
	cat := tinyCatalog(4)
	q := tinyQuery(t, cat, 4, query.ChainEdges(4))
	observations := execObservations(t, q, "dp")
	if len(observations) == 0 {
		t.Fatal("no observations")
	}
	rels, preds := 0, 0
	for _, o := range observations {
		switch o.Kind {
		case KindRelation:
			rels++
			if !strings.HasPrefix(o.Object, "R") || strings.Contains(o.Object, "=") {
				t.Fatalf("relation object %q not a relation name", o.Object)
			}
		case KindPredicate:
			preds++
			if !strings.Contains(o.Object, "=") {
				t.Fatalf("predicate object %q missing =", o.Object)
			}
			// The label's sides are sorted.
			parts := strings.SplitN(o.Object, "=", 2)
			if parts[0] > parts[1] {
				t.Fatalf("predicate label %q not sorted", o.Object)
			}
		default:
			t.Fatalf("unknown kind %q", o.Kind)
		}
		if o.Est < 1 || o.Actual < 0 {
			t.Fatalf("implausible observation %+v", o)
		}
		if o.Tech != "dp" || o.TraceID != "trace-1" {
			t.Fatalf("attribution lost: %+v", o)
		}
	}
	// A 4-relation chain has 4 scans and 3 joins (each with ≥1 predicate).
	if rels != 4 || preds < 3 {
		t.Fatalf("got %d relation / %d predicate observations, want 4 / ≥3", rels, preds)
	}
}

func TestQueryObjectsAndPredLabelStability(t *testing.T) {
	cat := tinyCatalog(3)
	q := tinyQuery(t, cat, 3, query.ChainEdges(3))
	objects := QueryObjects(q)
	if len(objects) != q.NumRelations()+len(q.Preds) {
		t.Fatalf("QueryObjects returned %d entries", len(objects))
	}
	for pi := range q.Preds {
		l1 := PredLabel(q, pi)
		if l1 != PredLabel(q, pi) {
			t.Fatal("PredLabel unstable")
		}
	}
}

func TestLedgerStaleness(t *testing.T) {
	l := NewLedger(LedgerOptions{MinObs: 3, StaleScore: 0.5})
	// Perfect estimates: staleness 0.
	for i := 0; i < 5; i++ {
		l.Record(Observation{Object: "R1", Kind: KindRelation, Est: 100, Actual: 100})
	}
	if s := l.Staleness("R1"); s != 0 {
		t.Fatalf("perfect estimates staleness = %g", s)
	}
	// 4× overestimates: geomean q-error 4 → score 0.75, stale.
	for i := 0; i < 5; i++ {
		l.Record(Observation{Object: "R2", Kind: KindRelation, Est: 400, Actual: 100})
	}
	if s := l.Staleness("R2"); s < 0.74 || s > 0.76 {
		t.Fatalf("4x overestimate staleness = %g, want ~0.75", s)
	}
	// Below MinObs: never stale, score 0.
	l.Record(Observation{Object: "R3", Kind: KindRelation, Est: 1000, Actual: 1})
	if s := l.Staleness("R3"); s != 0 {
		t.Fatalf("below-MinObs staleness = %g, want 0", s)
	}
	// StalenessFor is the max over the named objects.
	if s := l.StalenessFor([]string{"R1", "R2", "unknown"}); s < 0.74 {
		t.Fatalf("StalenessFor = %g", s)
	}
	if got := l.StaleCount(); got != 1 {
		t.Fatalf("StaleCount = %d, want 1 (R2)", got)
	}
	// Underestimates score symmetrically.
	for i := 0; i < 5; i++ {
		l.Record(Observation{Object: "R4", Kind: KindRelation, Est: 100, Actual: 400})
	}
	if s := l.Staleness("R4"); s < 0.74 || s > 0.76 {
		t.Fatalf("4x underestimate staleness = %g, want ~0.75", s)
	}
	// Nil safety.
	var nilL *Ledger
	nilL.Record(Observation{Object: "x"})
	if nilL.Staleness("x") != 0 || nilL.StalenessFor([]string{"x"}) != 0 || nilL.StaleCount() != 0 || nilL.Total() != 0 {
		t.Fatal("nil ledger not inert")
	}
	if d := nilL.Snapshot(nil); d == nil || len(d.Objects) != 0 {
		t.Fatal("nil ledger snapshot not empty")
	}
}

// TestDegradedStatsRaiseStaleness is the deterministic core of the CI
// feedback-smoke assertion: over Zipf-skewed data, a catalog that lost its
// statistics produces strictly worse estimates — and therefore a strictly
// higher ledger staleness — than the healthy catalog.
func TestDegradedStatsRaiseStaleness(t *testing.T) {
	base := tinyCatalog(5)
	zipfed, err := base.WithZipfSkew(1.3)
	if err != nil {
		t.Fatal(err)
	}
	// Degrade a copy: every column loses its ANALYZE statistics (the
	// -stats-health 0 limit), so estimation falls back to magic constants.
	// NDV stays — it describes the data, which stats loss does not change —
	// so both catalogs generate identical tables and only estimates differ.
	degraded, err := zipfed.WithZipfSkew(1.3) // deep copy
	if err != nil {
		t.Fatal(err)
	}
	for i := range degraded.Rels {
		for j := range degraded.Rels[i].Cols {
			degraded.Rels[i].Cols[j].StatsLost = true
		}
	}
	score := func(cat *catalog.Catalog) float64 {
		q := tinyQuery(t, cat, 5, query.StarEdges(5))
		l := NewLedger(LedgerOptions{MinObs: 1})
		l.Record(execObservations(t, q, "dp")...)
		d := l.Snapshot(nil)
		worst := 0.0
		for _, o := range d.Objects {
			if o.Staleness > worst {
				worst = o.Staleness
			}
		}
		return worst
	}
	healthy := score(zipfed)
	lost := score(degraded)
	if !(lost > healthy) {
		t.Fatalf("degraded staleness %g not above healthy %g", lost, healthy)
	}
}

func TestCorpusRoundTripAndLenientRead(t *testing.T) {
	cat := tinyCatalog(4)
	q := tinyQuery(t, cat, 4, query.StarEdges(4))
	observations := execObservations(t, q, "greedy")

	var buf bytes.Buffer
	cw := NewCorpusWriter(&buf)
	cw.Append(observations...)
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}

	got, skipped, err := ReadCorpusLenient(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(got) != len(observations) {
		t.Fatalf("round trip: %d observations (%d skipped), want %d", len(got), skipped, len(observations))
	}
	for i := range got {
		if got[i] != observations[i] {
			t.Fatalf("observation %d differs: %+v vs %+v", i, got[i], observations[i])
		}
	}

	// Lenient read: corrupt tail and garbage lines cost only themselves.
	corrupt := buf.String() + "{\"object\":\"R1\",\"kind\nnot json\n" + `{"kind":"relation","est":1}` + "\n"
	var warn bytes.Buffer
	got2, skipped2, err := ReadCorpusLenient(strings.NewReader(corrupt), &warn)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(observations) || skipped2 != 3 {
		t.Fatalf("lenient read: %d good, %d skipped, want %d/3", len(got2), skipped2, len(observations))
	}
	if !strings.Contains(warn.String(), "skipped") {
		t.Fatalf("no warnings: %q", warn.String())
	}
}

// TestProfileByteDeterministic pins the replay contract: the same corpus
// always reduces to a byte-identical marshaled ErrorProfile.
func TestProfileByteDeterministic(t *testing.T) {
	cat := tinyCatalog(5)
	q := tinyQuery(t, cat, 5, query.StarChainEdges(5, 2))
	observations := execObservations(t, q, "dp")

	p1 := BuildProfile(observations)
	p2 := BuildProfile(observations)
	b1, err := json.Marshal(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("profile not byte-deterministic:\n%s\n%s", b1, b2)
	}
	// And through a corpus write/read cycle.
	var buf bytes.Buffer
	cw := NewCorpusWriter(&buf)
	cw.Append(observations...)
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	replayed, _, err := ReadCorpusLenient(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := json.Marshal(BuildProfile(replayed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatalf("corpus round trip changed the profile:\n%s\n%s", b1, b3)
	}
	// Factors default to 1 for unobserved objects.
	if p1.RelFactor("nope") != 1 || p1.PredFactor("nope") != 1 {
		t.Fatal("unobserved factor not 1")
	}
	var nilP *ErrorProfile
	if nilP.RelFactor("x") != 1 || nilP.PredFactor("x") != 1 {
		t.Fatal("nil profile factors not 1")
	}
}

func TestSamplerEndToEnd(t *testing.T) {
	cat := tinyCatalog(4)
	q := tinyQuery(t, cat, 4, query.ChainEdges(4))
	p, _, err := dp.Optimize(q, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ob := obs.New()
	l := NewLedger(LedgerOptions{Obs: ob})
	var buf bytes.Buffer
	cw := NewCorpusWriter(&buf)
	s, err := NewSampler(SamplerOptions{
		Ledger: l,
		Corpus: cw,
		Obs:    ob,
		Rate:   1,
	}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Observe(Sample{Query: q, Plan: p, Technique: "dp", TraceID: "t1"})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent

	if l.Total() == 0 {
		t.Fatal("sampler fed no observations")
	}
	d := l.Snapshot(s)
	if d.Sampler == nil || d.Sampler.Sampled != 3 || d.Sampler.Completed != d.Sampler.Enqueued {
		t.Fatalf("sampler counts: %+v", d.Sampler)
	}
	// The corpus was flushed by Close and round-trips.
	got, skipped, err := ReadCorpusLenient(bytes.NewReader(buf.Bytes()), nil)
	if err != nil || skipped != 0 || len(got) == 0 {
		t.Fatalf("corpus: %d observations, %d skipped, err %v", len(got), skipped, err)
	}
	// Metrics reached the registry.
	var om bytes.Buffer
	if err := ob.Registry.WritePrometheus(&om); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sdpopt_feedback_observations_total", "sdpopt_feedback_sampled_total"} {
		if !strings.Contains(om.String(), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	// Render paths don't explode.
	if out := d.Render(); !strings.Contains(out, "cardinality feedback") {
		t.Fatalf("render: %q", out)
	}

	// Eligibility gates: an oversized query is skipped, not executed.
	l2 := NewLedger(LedgerOptions{})
	s2, err := NewSampler(SamplerOptions{Ledger: l2, Rate: 1, MaxRels: 2}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	s2.Observe(Sample{Query: q, Plan: p})
	s2.Close()
	if l2.Total() != 0 || s2.skipped.Load() != 1 {
		t.Fatalf("oversized query not skipped: total=%d skipped=%d", l2.Total(), s2.skipped.Load())
	}

	// Nil safety.
	var nilS *Sampler
	nilS.Observe(Sample{})
	nilS.Close()
	if err := nilS.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	l := NewLedger(LedgerOptions{MinObs: 1})
	for i := 0; i < 4; i++ {
		l.Record(Observation{Object: "R1", Kind: KindRelation, Est: 300, Actual: 100})
	}
	d := l.Snapshot(nil)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Objects) != 1 || got.Objects[0].Object != "R1" || !got.Objects[0].Stale {
		t.Fatalf("dump round trip: %+v", got.Objects)
	}
	if got.Objects[0].QErrP50 != 3 || got.Objects[0].Over != 4 {
		t.Fatalf("aggregates: %+v", got.Objects[0])
	}
	// NaN can never reach the document: encoding already proved it (NaN
	// would have failed Encode), but check the empty-window path too.
	empty := NewLedger(LedgerOptions{})
	if err := json.NewEncoder(&buf).Encode(empty.Snapshot(nil)); err != nil {
		t.Fatalf("empty snapshot not encodable: %v", err)
	}
}

// TestSamplerRelabelsCachedFrame: a serve from the plan cache hands the
// sampler the plan in the query's canonical frame together with that frame.
// The job must relabel it before executing, so the observations it records
// are exactly those of the requester-frame plan.
func TestSamplerRelabelsCachedFrame(t *testing.T) {
	cat := tinyCatalog(4)
	base := tinyQuery(t, cat, 4, query.ChainEdges(4))
	// base canonicalizes to the identity frame; the same chain spelled
	// back to front does not.
	rev := func(i int) int { return len(base.Rels) - 1 - i }
	rels := make([]int, len(base.Rels))
	for i, r := range base.Rels {
		rels[rev(i)] = r
	}
	var preds []query.Pred
	for _, pr := range base.Preds {
		if !pr.Implied {
			preds = append(preds, query.Pred{LeftRel: rev(pr.LeftRel), LeftCol: pr.LeftCol, RightRel: rev(pr.RightRel), RightCol: pr.RightCol})
		}
	}
	q, err := query.New(cat, rels, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	cn := q.Canon()
	if slices.Equal(cn.RelTo, []int{0, 1, 2, 3}) {
		t.Fatalf("respelled chain has the identity frame %v; the test needs a relabeling", cn.RelTo)
	}
	p, _, err := dp.Optimize(q, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sample := func(sm Sample) string {
		t.Helper()
		var buf bytes.Buffer
		s, err := NewSampler(SamplerOptions{Ledger: NewLedger(LedgerOptions{}), Corpus: NewCorpusWriter(&buf), Rate: 1}, "v1")
		if err != nil {
			t.Fatal(err)
		}
		s.Observe(sm)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return buf.String()
	}
	local := sample(Sample{Query: q, Plan: p, Technique: "dp", TraceID: "t1"})
	cached := sample(Sample{Query: q, Plan: p.Remap(cn.RelTo, cn.EqTo), Frame: cn, Technique: "dp", TraceID: "t1"})
	if local == "" || cached != local {
		t.Fatalf("canonical-frame sample recorded\n%s\nwant the requester-frame plan's\n%s", cached, local)
	}
}

func TestSummarizeWindow(t *testing.T) {
	// Empty window: zeros, not NaN.
	if p50, p95, max := summarizeWindow(nil); p50 != 0 || p95 != 0 || max != 0 {
		t.Fatalf("empty window = %g/%g/%g, want zeros", p50, p95, max)
	}
	// Single observation: all three equal it.
	if p50, p95, max := summarizeWindow([]float64{3.5}); p50 != 3.5 || p95 != 3.5 || max != 3.5 {
		t.Fatalf("single window = %g/%g/%g, want 3.5 each", p50, p95, max)
	}
	// All-equal observations.
	if p50, p95, max := summarizeWindow([]float64{2, 2, 2, 2}); p50 != 2 || p95 != 2 || max != 2 {
		t.Fatalf("all-equal window = %g/%g/%g, want 2 each", p50, p95, max)
	}
	// NaN and Inf inputs are dropped, not propagated.
	vals := []float64{1, math.NaN(), 4, math.Inf(1), 2}
	p50, p95, max := summarizeWindow(vals)
	if p50 != p50 || p95 != p95 || max != max {
		t.Fatalf("NaN leaked through: %g/%g/%g", p50, p95, max)
	}
	if p50 != 2 || max != 4 {
		t.Fatalf("window with NaN/Inf = %g/%g/%g, want p50=2 max=4", p50, p95, max)
	}
	// All-garbage window degrades to zeros.
	if p50, _, max := summarizeWindow([]float64{math.NaN(), math.Inf(-1)}); p50 != 0 || max != 0 {
		t.Fatalf("garbage window = %g/%g, want zeros", p50, max)
	}
}
