package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"sdpopt/internal/obs"
	"sdpopt/internal/plancache"
	"sdpopt/internal/testutil"
)

// TestServeHitAllocs fences the allocations of one /optimize cache hit, end
// to end through the handler: a Star-12 query of the warm-hit population,
// spelled as SQL, against a warm cache, with metrics on. The count includes
// the request and recorder the test builds per run. Serving the hit from
// the plan as cached — no relabeled tree copy, labels without fmt, compact
// JSON, pooled canonicalizer scratch — took it from 164 to 97; the ceiling
// is the latter with 20 % headroom. Under the race detector sync.Pool drops
// a share of its Puts (106-109 measured), so race builds are fenced at the
// old count instead.
func TestServeHitAllocs(t *testing.T) {
	q := testutil.WarmHitMix()[16]
	s, err := New(Options{
		Cat:   q.Cat,
		Cache: plancache.New(plancache.Options{}),
		Obs:   obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body, _ := json.Marshal(OptimizeRequest{SQL: q.SQL(), Technique: "greedy"})
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body)))
		return rec
	}
	for _, want := range []string{"miss", "hit"} {
		rec := serve()
		var resp OptimizeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.Source != want {
			t.Fatalf("warm-up: %d %s, want source %s", rec.Code, rec.Body.String(), want)
		}
	}
	allocs := testing.AllocsPerRun(50, func() { serve() })
	limit := 116.0
	if testutil.Race {
		limit = 164
	}
	t.Logf("cache hit: %.0f allocs", allocs)
	if allocs > limit {
		t.Errorf("cache hit: %.0f allocations, want ≤ %.0f", allocs, limit)
	}
}
