package server

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"sdpopt/internal/catalog"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/regret"
	"sdpopt/internal/plancache"
)

var updateGolden = flag.Bool("update", false, "rewrite golden testdata from current behavior")

const offPathGoldenPath = "testdata/offpath_surfaces.golden"

// TestOffPathSurfacesGolden pins what the off-path layers expose to the
// outside: one server runs the regret shadow (every serve, no dedup) and the
// exec sampler (every serve) side by side over a fixed request sequence, and
// the JSON key paths of /debug/{regret,routes,cardinality}.json plus the name
// and label keys of every sdpopt_{regret,feedback,route}_* series on /metrics
// must match the golden file. Values are not pinned — timings vary — only the
// shape a dashboard or script reading these surfaces depends on.
func TestOffPathSurfacesGolden(t *testing.T) {
	cat := catalog.MustSynthetic(catalog.Config{
		NumRelations: 6, BaseRows: 20, Ratio: 1.3,
		ColsPerRelation: 4, MinDomain: 4, MaxDomain: 30, Seed: 5,
	})
	ob := obs.New()
	s, ts := newTestServer(t, Options{
		Cat:   cat,
		Cache: plancache.New(plancache.Options{Obs: ob}),
		Obs:   ob,
		Regret: &regret.Options{
			SampleRate:    1,
			HitSampleRate: 1,
			DedupFor:      -1,
		},
		Feedback: &FeedbackOptions{SampleRate: 1},
	})

	star := &QuerySpec{Rels: []int{0, 1, 2, 3, 4}}
	for i := 1; i < 5; i++ {
		star.Preds = append(star.Preds, PredSpec{LeftRel: 0, LeftCol: 0, RightRel: i, RightCol: 1})
	}
	chain := &QuerySpec{Rels: []int{1, 2, 3}, Preds: []PredSpec{
		{LeftRel: 0, LeftCol: 1, RightRel: 1, RightCol: 1},
		{LeftRel: 1, LeftCol: 2, RightRel: 2, RightCol: 2},
	}}
	for i, req := range []OptimizeRequest{
		{Query: star, Technique: "sdp"},
		{Query: star, Technique: "sdp"}, // cache hit
		{Query: chain, Technique: "greedy"},
		{Query: chain, Technique: "idp2"},
		{Query: star, Technique: "auto"},
	} {
		if code, resp := postOptimize(t, ts.URL, req); code != http.StatusOK {
			t.Fatalf("request %d: code %d, error %q", i, code, resp.Error)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Regret().Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.FeedbackSampler().Drain(ctx); err != nil {
		t.Fatal(err)
	}

	var lines []string
	for _, path := range []string{"/debug/regret.json", "/debug/routes.json", "/debug/cardinality.json"} {
		var doc any
		if err := json.Unmarshal(httpGet(t, ts.URL+path), &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, p := range jsonKeyPaths(doc, "") {
			lines = append(lines, path+" "+p)
		}
	}
	lines = append(lines, metricSeriesShapes(t, httpGet(t, ts.URL+"/metrics"),
		"sdpopt_regret_", "sdpopt_feedback_", "sdpopt_route_")...)
	got := strings.Join(lines, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(offPathGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(lines), offPathGoldenPath)
		return
	}
	want, err := os.ReadFile(offPathGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("off-path surfaces changed:\n--- got\n%s--- want\n%s", got, want)
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: code %d, err %v", url, resp.StatusCode, err)
	}
	return body
}

// jsonKeyPaths lists every object key path in a decoded JSON document,
// sorted and deduplicated; array elements collapse into one "[]" step.
func jsonKeyPaths(v any, prefix string) []string {
	set := map[string]bool{}
	var walk func(v any, prefix string)
	walk = func(v any, prefix string) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				p := prefix + "." + k
				set[p] = true
				walk(child, p)
			}
		case []any:
			for _, child := range x {
				walk(child, prefix+"[]")
			}
		}
	}
	walk(v, prefix)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// metricSeriesShapes lists "name{label,keys}" for every Prometheus sample
// line whose name has one of the prefixes, sorted and deduplicated.
func metricSeriesShapes(t *testing.T, exposition []byte, prefixes ...string) []string {
	t.Helper()
	set := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(string(exposition)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		var keys []string
		if i := strings.IndexByte(line, '{'); i >= 0 && i < len(name) {
			name, rest = line[:i], line[i+1:]
			for !strings.HasPrefix(rest, "}") {
				k, v, ok := strings.Cut(rest, "=")
				if !ok {
					t.Fatalf("malformed series %q", line)
				}
				q, err := strconv.QuotedPrefix(v)
				if err != nil {
					t.Fatalf("malformed label value in %q: %v", line, err)
				}
				keys = append(keys, k)
				rest = strings.TrimPrefix(v[len(q):], ",")
			}
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				sort.Strings(keys)
				set[fmt.Sprintf("%s{%s}", name, strings.Join(keys, ","))] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
