package server

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"sdpopt/internal/obs"
	"sdpopt/internal/obs/regret"
	"sdpopt/internal/plancache"
	"sdpopt/internal/tech"
	"sdpopt/internal/workload"
)

// catalogueLabels are the label keys a series may carry: the bounded
// dimensions the metric docs name, and the build-info labels.
var catalogueLabels = map[string]bool{
	"tech": true, "level": true, "source": true, "shape": true, "kind": true,
	"route": true, "reason": true, "code": true, "cause": true, "criterion": true,
	"version": true, "goversion": true, "gomaxprocs": true,
}

// metricCatalogue parses the M* constants of package obs: their values and
// whether their doc comments say they count, which makes them counters.
func metricCatalogue(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../obs/obs.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]bool{}
	for _, decl := range f.Decls {
		g, ok := decl.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, spec := range g.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if !strings.HasPrefix(id.Name, "M") || len(vs.Values) <= i {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Errorf("%s: not a string literal", id.Name)
					continue
				}
				name, _ := strconv.Unquote(lit.Value)
				doc := vs.Doc.Text()
				if !strings.HasPrefix(doc, id.Name+" ") {
					t.Errorf("%s has no doc comment of its own", id.Name)
				}
				if !strings.HasPrefix(name, "sdpopt_") {
					t.Errorf("%s = %q lacks the sdpopt_ prefix", id.Name, name)
				}
				counter := strings.HasPrefix(doc, id.Name+" counts ")
				if counter != strings.HasSuffix(name, "_total") {
					t.Errorf("%s = %q: a counter (documented as counting) ends in _total, nothing else does", id.Name, name)
				}
				counts[name] = counter
			}
		}
	}
	if len(counts) == 0 {
		t.Fatal("no metric constants found")
	}
	return counts
}

// TestMetricCatalogue checks that every series a server run and an engine
// run put in the registry is one of package obs's documented metrics, of the
// kind its doc states, with label keys from the bounded set.
func TestMetricCatalogue(t *testing.T) {
	catalogue := metricCatalogue(t)

	ob := obs.New()
	s, ts := newTestServer(t, Options{
		Cache:    plancache.New(plancache.Options{Obs: ob}),
		Obs:      ob,
		Regret:   &regret.Options{SampleRate: 1, HitSampleRate: 1, DedupFor: -1},
		Feedback: &FeedbackOptions{SampleRate: 1},
	})
	star8 := "SELECT * FROM R1 a, R2 b, R3 c, R4 d, R5 e, R6 f, R7 g, R8 h WHERE a.c1 = b.c1 AND a.c2 = c.c2 AND a.c3 = d.c3 AND a.c4 = e.c4 AND a.c5 = f.c5 AND a.c6 = g.c6 AND a.c7 = h.c7"
	for i, req := range []OptimizeRequest{
		{SQL: testSQL, Technique: "greedy"},
		{SQL: testSQL, Technique: "greedy"}, // cache hit
		{SQL: testSQL, Technique: "idp2"},
		{SQL: star8, Technique: "sdp"},
		{SQL: star8, Technique: "auto"},
	} {
		if code, resp := postOptimize(t, ts.URL, req); code != http.StatusOK {
			t.Fatalf("request %d: code %d, error %q", i, code, resp.Error)
		}
	}
	if code, _ := postOptimize(t, ts.URL, OptimizeRequest{SQL: testSQL, Technique: "genetic"}); code != http.StatusBadRequest {
		t.Fatalf("technique genetic answered %d, want 400", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Regret().Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.FeedbackSampler().Drain(ctx); err != nil {
		t.Fatal(err)
	}
	q, err := workload.One(workload.Spec{Cat: workload.PaperSchema(), Topology: workload.Star, NumRelations: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{tech.DP, tech.SDP} {
		if _, _, err := tech.Run(context.Background(), name, q, tech.Options{Obs: ob}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	exposition := httpGet(t, ts.URL+"/metrics")
	kinds := map[string]string{}
	for _, line := range strings.Split(string(exposition), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			base, kind, _ := strings.Cut(rest, " ")
			kinds[base] = kind
		}
	}
	for base, kind := range kinds {
		counter, ok := catalogue[base]
		if !ok {
			t.Errorf("series %s (%s) is not a metric constant of package obs", base, kind)
		} else if counter != (kind == "counter") {
			t.Errorf("series %s is a %s, its doc says counter=%v", base, kind, counter)
		}
	}
	for _, must := range []string{obs.MServerSeconds, obs.MRegretRatio, obs.MFeedbackQError, obs.MSkylineSurvivors, obs.MLevelSeconds, obs.MBuildInfo} {
		if kinds[must] == "" {
			t.Errorf("the run put no %s series in the registry", must)
		}
	}
	for _, shape := range metricSeriesShapes(t, exposition, "sdpopt_") {
		name, keys, _ := strings.Cut(strings.TrimSuffix(shape, "}"), "{")
		for _, k := range strings.Split(keys, ",") {
			if k != "" && !catalogueLabels[k] && !(k == "le" && strings.HasSuffix(name, "_bucket")) {
				t.Errorf("series %s carries label %q outside the bounded set", name, k)
			}
		}
	}
}
