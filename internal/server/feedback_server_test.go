package server

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdpopt/internal/catalog"
	"sdpopt/internal/feedback"
	"sdpopt/internal/obs"
	"sdpopt/internal/route"
	"sdpopt/internal/tech"
)

// TestFeedbackEndToEnd drives the full loop: serve → exec sample → ledger →
// /debug/cardinality(.json) → JSONL corpus → lenient re-read.
func TestFeedbackEndToEnd(t *testing.T) {
	cat := catalog.MustSynthetic(catalog.Config{
		NumRelations: 6, BaseRows: 20, Ratio: 1.3,
		ColsPerRelation: 4, MinDomain: 4, MaxDomain: 30, Seed: 5,
	})
	logPath := filepath.Join(t.TempDir(), "feedback.jsonl")
	ob := obs.New()
	s, ts := newTestServer(t, Options{
		Cat: cat,
		Obs: ob,
		Feedback: &FeedbackOptions{
			SampleRate: 1,
			LogPath:    logPath,
		},
	})
	if s.FeedbackLedger() == nil || s.FeedbackSampler() == nil {
		t.Fatal("feedback subsystem not constructed")
	}

	star := &QuerySpec{Rels: []int{0, 1, 2, 3, 4}}
	for i := 1; i < 5; i++ {
		star.Preds = append(star.Preds, PredSpec{LeftRel: 0, LeftCol: 0, RightRel: i, RightCol: 1})
	}
	for i := 0; i < 3; i++ {
		code, resp := postOptimize(t, ts.URL, OptimizeRequest{Query: star, Technique: "sdp"})
		if code != http.StatusOK {
			t.Fatalf("optimize %d: code %d, error %q", i, code, resp.Error)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.FeedbackSampler().Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if s.FeedbackLedger().Total() == 0 {
		t.Fatal("ledger empty after sampled serves")
	}

	// The JSON surface reports per-object q-error quantiles.
	resp, err := http.Get(ts.URL + "/debug/cardinality.json")
	if err != nil {
		t.Fatal(err)
	}
	d, err := feedback.ReadDump(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Objects) == 0 || d.Sampler == nil || d.Sampler.Completed == 0 {
		t.Fatalf("cardinality dump: %d objects, sampler %+v", len(d.Objects), d.Sampler)
	}
	for _, o := range d.Objects {
		if o.QErrP50 < 1 || o.QErrMax < o.QErrP50 {
			t.Fatalf("bad quantiles: %+v", o)
		}
	}

	// The HTML page and the /debug index both render and cross-link.
	for path, want := range map[string]string{
		"/debug/cardinality": "cardinality feedback",
		"/debug":             "/debug/cardinality",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("%s: code %d, body missing %q", path, resp.StatusCode, want)
		}
	}

	// Shutdown flushes and closes the corpus; the file re-reads leniently.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	observations, skipped, err := feedback.ReadCorpusLenient(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(observations) == 0 {
		t.Fatalf("corpus: %d observations, %d skipped", len(observations), skipped)
	}
	for _, o := range observations {
		if o.Tech != "sdp" || o.TraceID == "" {
			t.Fatalf("observation lost attribution: %+v", o)
		}
	}

	// Ledger metrics reached the registry.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(mb), "sdpopt_feedback_observations_total") {
		t.Fatal("feedback metrics missing from /metrics")
	}
}

// TestDebugIndexListsConfiguredSurfaces checks the index adapts to what the
// server actually mounts.
func TestDebugIndexListsConfiguredSurfaces(t *testing.T) {
	_, bare := newTestServer(t, Options{})
	resp, err := http.Get(bare.URL + "/debug")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(body)
	for _, want := range []string{"/debug/requests", "/debug/flight.json", "/debug/routes"} {
		if !strings.Contains(page, want) {
			t.Fatalf("index missing %s:\n%s", want, page)
		}
	}
	for _, absent := range []string{"/debug/regret", "/debug/cardinality", "/metrics"} {
		if strings.Contains(page, absent) {
			t.Fatalf("index lists unmounted surface %s", absent)
		}
	}

	// A JSON body on the .json twin but HTML on the index.
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Fatalf("index content type %q", ct)
	}
}

// TestStaleDemotionServes proves the serving-layer coupling end to end: with
// the exact tier opted in, an auto-routed query serves exhaustive DP while
// its estimates are healthy and is demoted to SDP once the ledger flags its
// objects stale.
func TestStaleDemotionServes(t *testing.T) {
	cat := catalog.MustSynthetic(catalog.Config{
		NumRelations: 8, BaseRows: 20, Ratio: 1.3,
		ColsPerRelation: 4, MinDomain: 4, MaxDomain: 30, Seed: 5,
	})
	s, ts := newTestServer(t, Options{
		Cat:      cat,
		Route:    route.Options{ExactRels: 12},
		Feedback: &FeedbackOptions{},
	})

	star := &QuerySpec{Rels: []int{0, 1, 2, 3, 4, 5}}
	for i := 1; i < 6; i++ {
		star.Preds = append(star.Preds, PredSpec{LeftRel: 0, LeftCol: 0, RightRel: i, RightCol: 1})
	}
	req := OptimizeRequest{Query: star, Technique: "auto", NoCache: true}

	code, healthy := postOptimize(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("healthy optimize: code %d, error %q", code, healthy.Error)
	}
	if healthy.Technique != tech.DP || healthy.RouteReason != route.ReasonExact {
		t.Fatalf("healthy route = %s/%s, want dp/%s", healthy.Technique, healthy.RouteReason, route.ReasonExact)
	}

	// Feed the ledger 4× misestimates for one of the query's relations —
	// past MinObs, staleness 0.75, over the demotion threshold.
	for i := 0; i < 5; i++ {
		s.FeedbackLedger().Record(feedback.Observation{
			Object: cat.Rels[0].Name, Kind: feedback.KindRelation, Est: 400, Actual: 100,
		})
	}
	code, stale := postOptimize(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("stale optimize: code %d, error %q", code, stale.Error)
	}
	if stale.Technique != tech.SDP || stale.RouteReason != route.ReasonStaleDemote {
		t.Fatalf("stale route = %s/%s, want sdp/%s", stale.Technique, stale.RouteReason, route.ReasonStaleDemote)
	}

	// A query not touching the stale relation keeps the exact tier.
	other := &QuerySpec{Rels: []int{1, 2, 3, 4, 5, 6}}
	for i := 1; i < 6; i++ {
		other.Preds = append(other.Preds, PredSpec{LeftRel: 0, LeftCol: 0, RightRel: i, RightCol: 1})
	}
	code, unaffected := postOptimize(t, ts.URL, OptimizeRequest{Query: other, Technique: "auto", NoCache: true})
	if code != http.StatusOK {
		t.Fatalf("unaffected optimize: code %d, error %q", code, unaffected.Error)
	}
	if unaffected.Technique != tech.DP || unaffected.RouteReason != route.ReasonExact {
		t.Fatalf("unaffected route = %s/%s, want dp/%s", unaffected.Technique, unaffected.RouteReason, route.ReasonExact)
	}
}
